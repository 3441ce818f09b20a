// Trace continuity across a shard failure: one shared TraceRecorder must
// tell a displaced request's whole story — submitted on the dead shard,
// harvested, resubmitted to a survivor, retired — with exactly one
// first-token event no matter where the token was generated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::cluster {
namespace {

std::size_t count_event(const std::vector<obs::TraceRecord>& events,
                        obs::TraceEvent e) {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [e](const obs::TraceRecord& r) { return r.event == e; }));
}

TEST(TraceFailover, ScriptedKillYieldsHarvestResubmitAndOneFirstToken) {
    auto trace = std::make_shared<obs::TraceRecorder>(1024);
    ClusterOptions opts;
    opts.shards = 2;
    // Shard 0 dies on its 4th decode_batch call — mid-stream for these
    // prompts (one prompt-tile step, then decode), so its requests carry
    // partial token histories when harvested.
    opts.shard_fault_specs = {"step:4"};
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.trace = trace;
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, opts);

    std::vector<runtime::RequestHandle> handles;
    for (int r = 0; r < 4; ++r) {
        handles.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "tf " + std::to_string(r), .max_new_tokens = 6}));
    }
    d.router->start();

    std::size_t displaced = 0;
    for (auto& h : handles) {
        const runtime::ServeResult& res = h.get();
        const std::vector<obs::TraceRecord> events = trace->for_request(res.id);
        ASSERT_FALSE(events.empty()) << "request " << res.id;

        // Every request's story starts at submission and ends at retirement,
        // and the retirement reason in the trace is the one the caller saw.
        EXPECT_EQ(events.front().event, obs::TraceEvent::kSubmitted);
        EXPECT_EQ(events.back().event, obs::TraceEvent::kRetired);
        EXPECT_EQ(events.back().arg,
                  static_cast<std::uint64_t>(res.finish_reason));

        // Exactly-once first token, displaced or not: a resumed request's
        // replayed history must never re-fire the event on the survivor.
        EXPECT_EQ(count_event(events, obs::TraceEvent::kFirstToken), 1u)
            << "request " << res.id;

        if (res.failovers > 0) {
            ++displaced;
            EXPECT_EQ(count_event(events, obs::TraceEvent::kFailoverHarvest),
                      res.failovers);
            EXPECT_EQ(count_event(events, obs::TraceEvent::kResubmitted),
                      res.failovers);
            // Harvested off the dead shard, retired on the survivor.
            const auto harvest = std::find_if(
                events.begin(), events.end(), [](const obs::TraceRecord& r) {
                    return r.event == obs::TraceEvent::kFailoverHarvest;
                });
            EXPECT_EQ(harvest->shard, 0u);
            EXPECT_EQ(events.back().shard, 1u);
            // The resubmission lands after the harvest, before retirement.
            const auto resub = std::find_if(
                events.begin(), events.end(), [](const obs::TraceRecord& r) {
                    return r.event == obs::TraceEvent::kResubmitted;
                });
            EXPECT_LT(harvest - events.begin(), resub - events.begin());
        }
    }
    EXPECT_GE(displaced, 1u);  // the kill really displaced someone
    EXPECT_EQ(trace->dropped(), 0u);
    d.router->stop();
}

TEST(TraceFailover, QueueHarvestTracesResubmissionWithoutTokens) {
    // alloc:1 kills shard 0 at its first admission: its requests are
    // harvested from the queue with zero tokens done, and the survivor owns
    // every first-token event.
    auto trace = std::make_shared<obs::TraceRecorder>(1024);
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard_fault_specs = {"alloc:1"};
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.trace = trace;
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, opts);

    std::vector<runtime::RequestHandle> handles;
    for (int r = 0; r < 4; ++r) {
        handles.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "qh " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.router->start();

    for (auto& h : handles) {
        const runtime::ServeResult& res = h.get();
        const std::vector<obs::TraceRecord> events = trace->for_request(res.id);
        EXPECT_EQ(count_event(events, obs::TraceEvent::kFirstToken), 1u);
        if (res.failovers > 0) {
            // Nothing ran before the fault: the harvest records zero tokens
            // done and the first token fires on the surviving shard.
            const auto harvest = std::find_if(
                events.begin(), events.end(), [](const obs::TraceRecord& r) {
                    return r.event == obs::TraceEvent::kFailoverHarvest;
                });
            ASSERT_NE(harvest, events.end());
            EXPECT_EQ(harvest->arg, 0u);
            const auto first = std::find_if(
                events.begin(), events.end(), [](const obs::TraceRecord& r) {
                    return r.event == obs::TraceEvent::kFirstToken;
                });
            EXPECT_EQ(first->shard, 1u);
        }
    }
    d.router->stop();
}

}  // namespace
}  // namespace efld::cluster
