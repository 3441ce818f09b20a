// SloController over a live synthetic cluster: the closed loop from sampled
// metrics through alert transitions to governor actuation and flight-recorder
// bundles, driven deterministically by a ManualClock (sample_now(), no
// background sampler thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/slo_controller.hpp"
#include "common/check.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"
#include "serve/overload.hpp"

namespace efld::cluster {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;

std::string tmp_dir(const char* tag) {
    std::string tmpl = std::string("/tmp/efld_slo_") + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = ::mkdtemp(buf.data());
    check(d != nullptr, "mkdtemp failed");
    return d;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct SloCluster {
    std::shared_ptr<obs::ManualClock> clock;
    std::shared_ptr<serve::OverloadGovernor> governor;
    runtime::ClusterDeployment d;
};

SloCluster deploy(std::size_t shards, ClusterOptions opts = {}) {
    SloCluster c;
    c.clock = std::make_shared<obs::ManualClock>(1 * kSec);
    c.governor = std::make_shared<serve::OverloadGovernor>();
    opts.shards = shards;
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.clock = c.clock;
    opts.shard.trace = std::make_shared<obs::TraceRecorder>(4096);
    opts.shard.overload = c.governor;
    c.d = runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, opts);
    return c;
}

void run_burst(ClusterRouter& router, std::size_t n, const std::string& tag) {
    const std::size_t before = router.stats().requests_completed();
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = tag + " " + std::to_string(i), .max_new_tokens = 4}));
    }
    for (auto& h : handles) (void)h.get();
    // A handle resolves just before its engine counts the completion; wait
    // for the count too, or a sample taken now could miss the last one.
    while (router.stats().requests_completed() < before + n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

}  // namespace

TEST(ClusterSlo, ClosedLoopLifecycleFromTrafficToGovernorAndBack) {
    SloCluster c = deploy(2);
    c.d.router->start();

    const std::string dir = tmp_dir("alert");
    SloController::Options so;
    // Completion RATE above 0.5/s: active traffic trips it, idleness clears
    // it — a lifecycle the test can script via bursts and clock steps.
    so.rules = "busy=threshold:serve_requests_completed:gt:0.5:0";
    so.flight_dir = dir;
    so.governor = c.governor;
    SloController slo(*c.d.router, so);

    // t=1s: first sample only baselines the counter — no rate yet, no alert.
    slo.sample_now();
    EXPECT_EQ(slo.engine().state(0), obs::AlertState::kInactive);
    EXPECT_FALSE(c.governor->engaged());

    // t=2s: a burst completed inside the second → rate > 0.5 → the rule
    // fires (for=0) and the governor engages.
    run_burst(*c.d.router, 4, "busy");
    c.clock->advance_ns(1 * kSec);
    slo.sample_now();
    EXPECT_EQ(slo.engine().state(0), obs::AlertState::kFiring);
    EXPECT_TRUE(c.governor->engaged());
    EXPECT_EQ(c.governor->engagements(), 1u);

    // The firing wrote a flight bundle named after the alert.
    const obs::MetricsSnapshot fired = slo.metrics_snapshot();
    EXPECT_EQ(fired.counters.at("slo_flight_captures_total"), 1u);
    EXPECT_DOUBLE_EQ(fired.gauges.at("serve_alerts_firing"), 1.0);
    EXPECT_DOUBLE_EQ(fired.gauges.at("serve_alert_state_busy"), 2.0);
    EXPECT_DOUBLE_EQ(fired.gauges.at("cluster_overload_engaged"), 1.0);
    EXPECT_GT(fired.gauges.at("process_uptime_seconds"), 0.0);
    EXPECT_GT(fired.counters.at("slo_tsdb_ingests_total"), 0u);

    // t=3s: no completions this second → rate 0 → resolves (resolve=for=0)
    // and the governor disengages.
    c.clock->advance_ns(1 * kSec);
    slo.sample_now();
    EXPECT_EQ(slo.engine().state(0), obs::AlertState::kInactive);
    EXPECT_FALSE(c.governor->engaged());

    // The shared trace ring holds the full incident: pending+firing at the
    // same evaluation (for=0), then the resolve.
    std::size_t pending = 0, firing = 0, resolved = 0;
    for (const obs::TraceRecord& e : c.d.router->options().shard.trace->snapshot()) {
        pending += e.event == obs::TraceEvent::kAlertPending ? 1 : 0;
        firing += e.event == obs::TraceEvent::kAlertFiring ? 1 : 0;
        resolved += e.event == obs::TraceEvent::kAlertResolved ? 1 : 0;
    }
    EXPECT_EQ(pending, 1u);
    EXPECT_EQ(firing, 1u);
    EXPECT_EQ(resolved, 1u);

    // Wire bodies: the alert timeline and a queryable TSDB series.
    const std::string alerts = slo.alerts_json();
    EXPECT_NE(alerts.find("\"name\":\"busy\""), std::string::npos);
    EXPECT_NE(alerts.find("\"to\":\"firing\""), std::string::npos);
    const std::string q =
        slo.query_json("serve_requests_completed", 60 * kSec);
    EXPECT_NE(q.find("\"series\":\"serve_requests_completed\""),
              std::string::npos);
    EXPECT_NE(q.find("\"points\":[["), std::string::npos);

    c.d.router->drain();
    c.d.router->stop();
}

TEST(ClusterSlo, GovernorTtftEstimateIsTheTsdbWindowMean) {
    SloCluster c = deploy(2);
    SloController::Options so;
    so.governor = c.governor;  // no rules: the estimate flows regardless
    SloController slo(*c.d.router, so);

    // t=1s: the first sample only baselines the cumulative histograms.
    slo.sample_now();
    EXPECT_EQ(c.governor->ttft_estimate_ns(), 0u);

    // Queue a burst, let 250ms of manual time pass, then serve it: every
    // first token lands at t=1.25s, so each TTFT is exactly 250ms.
    std::vector<runtime::RequestHandle> handles;
    for (int i = 0; i < 4; ++i) {
        handles.push_back(c.d.router->submit(runtime::ServeRequest{
            .prompt = "ttft " + std::to_string(i), .max_new_tokens = 4}));
    }
    c.clock->advance_ns(kSec / 4);
    c.d.router->start();
    for (auto& h : handles) (void)h.get();

    // t=2s: the burst's deltas are in the store, merged across both shards.
    c.clock->advance_ns(3 * kSec / 4);
    slo.sample_now();
    const obs::HistogramSnapshot h =
        slo.store().histogram_over("serve_ttft_ns", 10 * kSec, c.clock->now_ns());
    ASSERT_EQ(h.count, 4u);
    EXPECT_EQ(c.governor->ttft_estimate_ns(), h.sum / h.count);
    EXPECT_EQ(c.governor->ttft_estimate_ns(), kSec / 4);

    // t=13s: the burst has aged out of the 10s window — back to no data.
    c.clock->advance_ns(11 * kSec);
    slo.sample_now();
    EXPECT_EQ(slo.store()
                  .histogram_over("serve_ttft_ns", 10 * kSec, c.clock->now_ns())
                  .count,
              0u);
    EXPECT_EQ(c.governor->ttft_estimate_ns(), 0u);

    c.d.router->drain();
    c.d.router->stop();
}

TEST(ClusterSlo, ShardFailureTriggersFlightBundleWithFailoverEvidence) {
    ClusterOptions opts;
    // Shard 0 dies mid-workload: one prompt-tile step, then mid-decode.
    opts.shard_fault_specs = {"step:4"};
    SloCluster c = deploy(2, opts);

    const std::string dir = tmp_dir("failure");
    SloController::Options so;
    so.flight_dir = dir;  // no rules: flight capture alone
    SloController slo(*c.d.router, so);

    // Ingest one pre-incident sample so the bundle's TSDB tail has data.
    slo.sample_now();
    c.clock->advance_ns(1 * kSec);

    std::vector<runtime::RequestHandle> handles;
    for (int i = 0; i < 4; ++i) {
        // Submit before start: least-loaded placement gives shard 0 victims.
        handles.push_back(c.d.router->submit(runtime::ServeRequest{
            .prompt = "fo " + std::to_string(i), .max_new_tokens = 6}));
    }
    c.d.router->start();
    for (auto& h : handles) {
        EXPECT_EQ(h.get().finish_reason, runtime::FinishReason::kBudget);
    }
    EXPECT_EQ(c.d.router->stats().shard_failures, 1u);

    // The observer runs on the dying shard's driver thread after the failover
    // sweep; displaced requests can finish on the survivor first. Wait for
    // the bundle, bounded.
    ASSERT_NE(slo.recorder(), nullptr);
    for (int i = 0; i < 2000 && slo.recorder()->captures() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(slo.recorder()->captures(), 1u);
    const obs::MetricsSnapshot snap = slo.metrics_snapshot();
    EXPECT_EQ(snap.counters.at("slo_flight_captures_total"), 1u);

    const std::string bundle =
        slurp(dir + "/flight_0_shard_failure_0.json");
    ASSERT_FALSE(bundle.empty());
    EXPECT_EQ(bundle.front(), '{');
    EXPECT_NE(bundle.find("\"reason\":\"shard_failure_0\""), std::string::npos);
    EXPECT_NE(bundle.find("failover_harvest"), std::string::npos);
    EXPECT_NE(bundle.find("resubmitted"), std::string::npos);
    EXPECT_NE(bundle.find("\"tsdb\":{"), std::string::npos);
    EXPECT_NE(bundle.find("cluster_shard_failures"), std::string::npos);

    EXPECT_NO_THROW(c.d.router->stop());
}

TEST(ClusterSlo, BackgroundSamplerDrivesTheLoopWithoutManualTicks) {
    // Production shape: start() runs the sampler thread on a short interval
    // against the real steady clock; the TSDB fills with router series.
    SloCluster c = deploy(2);
    c.d.router->start();
    SloController::Options so;
    so.sample_interval_ns = 2'000'000;  // 2ms
    so.clock = &obs::steady_clock();  // override the shards' ManualClock
    SloController slo(*c.d.router, so);
    slo.start();
    EXPECT_TRUE(slo.running());
    run_burst(*c.d.router, 4, "bg");
    while (slo.samples() < 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slo.stop();
    EXPECT_FALSE(slo.running());
    const std::uint64_t n = slo.samples();
    EXPECT_GE(n, 5u);

    // The store retained real series from the router snapshot.
    bool saw_completed = false;
    for (const std::string& name : slo.store().series_names()) {
        saw_completed |= name == "serve_requests_completed";
    }
    EXPECT_TRUE(saw_completed);

    c.d.router->drain();
    c.d.router->stop();
}

TEST(ClusterSlo, FullStackIsABystanderWithoutOverload) {
    // Light load with no deadlines: the controller sampling after every step,
    // its queue-depth rule and the governor attached must shed nothing and
    // change no token against a bare cluster with no SLO machinery at all.
    // Protection stays invisible until it is needed.
    const auto submit_all = [](ClusterRouter& router) {
        std::vector<runtime::RequestHandle> hs;
        for (int i = 0; i < 3; ++i) {
            hs.push_back(router.submit(runtime::ServeRequest{
                .prompt = "slo probe " + std::to_string(i), .max_new_tokens = 24}));
        }
        return hs;
    };
    ClusterOptions opts;
    opts.shard.max_batch = 2;  // the third request queues behind the first two
    ClusterOptions bare_opts = opts;
    bare_opts.shards = 1;
    bare_opts.shard.sampler.temperature = 0.0f;
    runtime::ClusterDeployment bare =
        runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, bare_opts);
    std::vector<runtime::RequestHandle> want = submit_all(*bare.router);

    SloCluster c = deploy(1, opts);
    SloController::Options so;
    so.rules = "overload=threshold:serve_queued:gt:3:0";
    so.governor = c.governor;
    SloController slo(*c.d.router, so);
    std::vector<runtime::RequestHandle> got = submit_all(*c.d.router);
    slo.sample_now();
    // One sample per simulated second, one step after each: the third
    // request waits in the queue while the published TTFT estimate is live,
    // so a sweep that shed without a deadline or an engaged governor would
    // take it.
    std::size_t steps = 0;
    std::uint64_t peak_estimate_ns = 0;
    for (;;) {
        c.clock->advance_ns(kSec);
        slo.sample_now();
        EXPECT_EQ(slo.engine().state(0), obs::AlertState::kInactive);
        peak_estimate_ns = std::max(peak_estimate_ns, c.governor->ttft_estimate_ns());
        if (!c.d.router->shard(0).step()) break;
        ++steps;
    }
    bare.router->drain();

    EXPECT_GT(steps, 0u);
    EXPECT_GT(peak_estimate_ns, 0u);  // the controller published a live estimate
    EXPECT_EQ(c.governor->engagements(), 0u);
    EXPECT_EQ(c.governor->shed_total(), 0u);
    EXPECT_EQ(c.d.router->stats().shards[0].stats.requests_shed, 0u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].get().finish_reason, runtime::FinishReason::kBudget);
        EXPECT_EQ(got[i].get().tokens, want[i].get().tokens) << "request " << i;
    }
}

TEST(ClusterSlo, RejectsBadRuleSpecEagerly) {
    SloCluster c = deploy(1);
    SloController::Options so;
    so.rules = "threshold:oops";
    EXPECT_THROW(SloController(*c.d.router, so), std::invalid_argument);
}

}  // namespace efld::cluster
