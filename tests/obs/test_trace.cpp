// TraceRecorder: deterministic timestamps through ManualClock, ring
// overwrite accounting, per-request filtering, and the JSONL dump format.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::obs {
namespace {

TEST(Trace, EventsKeepManualClockOrder) {
    ManualClock clock;
    TraceRecorder rec(16, &clock);
    clock.set_ns(100);
    rec.record(1, 0, TraceEvent::kSubmitted, 5);
    clock.advance_ns(50);
    rec.record(1, 0, TraceEvent::kAdmitted, 2);
    clock.advance_ns(50);
    rec.record(1, 0, TraceEvent::kFirstToken, 42);

    const std::vector<TraceRecord> events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].ts_ns, 100u);
    EXPECT_EQ(events[0].event, TraceEvent::kSubmitted);
    EXPECT_EQ(events[0].arg, 5u);
    EXPECT_EQ(events[1].ts_ns, 150u);
    EXPECT_EQ(events[1].event, TraceEvent::kAdmitted);
    EXPECT_EQ(events[2].ts_ns, 200u);
    EXPECT_EQ(events[2].event, TraceEvent::kFirstToken);
    EXPECT_EQ(events[2].arg, 42u);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
    ManualClock clock;
    TraceRecorder rec(4, &clock);
    for (std::uint64_t i = 0; i < 10; ++i) {
        clock.set_ns(i);
        rec.record(i, 0, TraceEvent::kSubmitted);
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);
    const std::vector<TraceRecord> events = rec.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first across the wrap point: requests 6, 7, 8, 9 survive.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].request_id, 6 + i);
        EXPECT_EQ(events[i].ts_ns, 6 + i);
    }
}

TEST(Trace, ForRequestFiltersAndKeepsOrder) {
    ManualClock clock;
    TraceRecorder rec(16, &clock);
    rec.record(7, 0, TraceEvent::kSubmitted);
    rec.record(8, 0, TraceEvent::kSubmitted);
    rec.record(7, 0, TraceEvent::kAdmitted);
    rec.record(7, 1, TraceEvent::kResubmitted, 1);
    const std::vector<TraceRecord> events = rec.for_request(7);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].event, TraceEvent::kSubmitted);
    EXPECT_EQ(events[1].event, TraceEvent::kAdmitted);
    EXPECT_EQ(events[2].event, TraceEvent::kResubmitted);
    EXPECT_EQ(events[2].shard, 1u);
    EXPECT_TRUE(rec.for_request(99).empty());
}

TEST(Trace, EventNames) {
    EXPECT_STREQ(to_string(TraceEvent::kSubmitted), "submitted");
    EXPECT_STREQ(to_string(TraceEvent::kRetired), "retired");
    EXPECT_STREQ(to_string(TraceEvent::kFailoverHarvest), "failover_harvest");
}

TEST(Trace, DumpJsonl) {
    ManualClock clock;
    clock.set_ns(42);
    TraceRecorder rec(8, &clock);
    rec.record(3, 1, TraceEvent::kFirstToken, 99);
    std::ostringstream out;
    rec.dump_jsonl(out);
    EXPECT_EQ(out.str(),
              "{\"ts_ns\":42,\"request\":3,\"shard\":1,"
              "\"event\":\"first_token\",\"arg\":99}\n");
}

TEST(Trace, ServeExportsDroppedCounterFromItsRing) {
    // A deliberately tiny ring under real serve traffic must overflow, and
    // the engine's scrape must report exactly what the ring says it lost —
    // dropped trace events are an observability gap worth alerting on.
    auto trace = std::make_shared<TraceRecorder>(4);
    serve::ServeOptions opts;
    opts.max_batch = 2;
    opts.trace = trace;
    runtime::ServeDeployment d = runtime::synthetic_serve(
        model::ModelConfig::micro_256(), 42, opts);
    std::vector<serve::RequestHandle> futs;
    for (int r = 0; r < 4; ++r) {
        futs.push_back(d.engine->submit(serve::Request{
            .prompt = "drop probe " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.engine->run_until_idle();
    for (auto& f : futs) (void)f.get();

    const MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_GT(trace->dropped(), 0u);
    EXPECT_EQ(snap.counters.at("serve_trace_dropped_total"), trace->dropped());

    // No recorder configured → the counter must be absent, not zero.
    serve::ServeOptions bare;
    bare.max_batch = 2;
    runtime::ServeDeployment d2 = runtime::synthetic_serve(
        model::ModelConfig::micro_256(), 42, bare);
    auto fut = d2.engine->submit(serve::Request{
        .prompt = "no trace", .max_new_tokens = 3});
    d2.engine->run_until_idle();
    (void)fut.get();
    EXPECT_EQ(d2.engine->metrics_snapshot().counters.count(
                  "serve_trace_dropped_total"),
              0u);
}

TEST(Trace, ZeroCapacityClampsToOne) {
    TraceRecorder rec(0);
    EXPECT_EQ(rec.capacity(), 1u);
    rec.record(1, 0, TraceEvent::kSubmitted);
    rec.record(2, 0, TraceEvent::kSubmitted);
    EXPECT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.dropped(), 1u);
    EXPECT_EQ(rec.snapshot()[0].request_id, 2u);
}

}  // namespace
}  // namespace efld::obs
