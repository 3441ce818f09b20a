// Background serve driver: a dedicated thread drives step(), sleeps on the
// queue's condition variable when idle, wakes on submit, and hands the loop
// back cleanly on stop().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "engine/fault_injection.hpp"
#include "model/tokenizer.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

runtime::ServeDeployment deploy(ServeOptions opts = {}, std::uint64_t seed = 42) {
    opts.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_serve(model::ModelConfig::micro_256(), seed, opts);
}

TEST(ServeDriver, ServesSubmittedWorkWithoutManualStepping) {
    runtime::ServeDeployment d = deploy();
    d.engine->run();
    EXPECT_TRUE(d.engine->running());

    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 6; ++r) {
        hs.push_back(d.engine->submit(runtime::ServeRequest{
            .prompt = "driver " + std::to_string(r), .max_new_tokens = 5}));
    }
    for (auto& h : hs) {
        EXPECT_EQ(h.get().tokens.size(), 5u);  // blocks on the future only
        EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    }
    d.engine->wait_until_idle();
    d.engine->stop();
    EXPECT_FALSE(d.engine->running());
    EXPECT_EQ(d.engine->stats().requests_completed, 6u);
    EXPECT_EQ(d.engine->active_sessions(), 0u);
}

TEST(ServeDriver, StatsIncludeARequestOnceItsFutureResolves) {
    // The engine books a step's token counters and the completion BEFORE it
    // resolves the future: a caller returning from get() on a driver-run
    // engine reads stats that already count its own request.
    runtime::ServeDeployment d = deploy();
    d.engine->run();
    model::ByteTokenizer tok;
    std::size_t prompt = 0;
    std::size_t generated = 0;
    for (std::size_t r = 0; r < 12; ++r) {
        const std::string text = "booked " + std::to_string(r);
        runtime::RequestHandle h = d.engine->submit(
            runtime::ServeRequest{.prompt = text, .max_new_tokens = 3});
        const std::size_t got = h.get().tokens.size();
        const ServeStats st = d.engine->stats_snapshot();
        prompt += tok.encode(text).size();
        generated += got;
        EXPECT_EQ(st.requests_completed, r + 1) << "request " << r;
        EXPECT_EQ(st.prompt_tokens, prompt) << "request " << r;
        EXPECT_EQ(st.generated_tokens, generated) << "request " << r;
    }
    d.engine->stop();
}

TEST(ServeDriver, WakesFromIdleOnLateSubmit) {
    // The driver goes idle (empty queue), sleeps on the CV, and a submit from
    // another thread must wake it — no polling, no manual step.
    runtime::ServeDeployment d = deploy();
    d.engine->run();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // driver idles

    runtime::RequestHandle h = d.engine->submit(
        runtime::ServeRequest{.prompt = "late", .max_new_tokens = 4});
    EXPECT_EQ(h.get().tokens.size(), 4u);
    d.engine->stop();
}

TEST(ServeDriver, RunThenImmediateStopNeverHangs) {
    // stop() right after run() races a fresh driver into its idle wait. The
    // stop flag must never slip between the driver's wake-predicate check
    // and its sleep — a lost wake-up would hang stop()'s join forever.
    runtime::ServeDeployment d = deploy();
    for (int i = 0; i < 2000; ++i) {
        d.engine->run();
        // Sweep stop() across the driver's startup and idle entry.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(i % 50);
        while (std::chrono::steady_clock::now() < until) {}
        d.engine->stop();
    }
    EXPECT_FALSE(d.engine->running());

    // With a submit in between: each request either finishes under its
    // cycle's driver or stays queued for a later one — never lost.
    std::vector<runtime::RequestHandle> hs;
    for (int i = 0; i < 8; ++i) {
        d.engine->run();
        hs.push_back(d.engine->submit(runtime::ServeRequest{
            .prompt = "cycle " + std::to_string(i), .max_new_tokens = 2}));
        d.engine->stop();
    }
    d.engine->run();
    for (auto& h : hs) EXPECT_EQ(h.get().tokens.size(), 2u);
    d.engine->wait_until_idle();
    d.engine->stop();
    EXPECT_EQ(d.engine->stats().requests_completed, 8u);
}

TEST(ServeDriver, StreamingCallbacksFireOnDriverThread) {
    runtime::ServeDeployment d = deploy();
    const std::thread::id main_id = std::this_thread::get_id();
    std::atomic<int> streamed{0};
    std::atomic<bool> on_main{false};
    d.engine->run();
    runtime::RequestHandle h = d.engine->submit(runtime::ServeRequest{
        .prompt = "stream",
        .max_new_tokens = 6,
        .on_token = [&](std::int32_t, std::string_view) {
            streamed.fetch_add(1);
            if (std::this_thread::get_id() == main_id) on_main.store(true);
        }});
    (void)h.get();
    d.engine->stop();
    EXPECT_EQ(streamed.load(), 6);
    EXPECT_FALSE(on_main.load());  // callbacks ran on the driver thread
}

TEST(ServeDriver, ManualSteppingIsLockedOutWhileRunning) {
    runtime::ServeDeployment d = deploy();
    d.engine->run();
    EXPECT_THROW((void)d.engine->step(), efld::Error);
    EXPECT_THROW(d.engine->run_until_idle(), efld::Error);
    EXPECT_THROW(d.engine->run(), efld::Error);  // one driver at a time
    d.engine->stop();
    d.engine->stop();  // idempotent
    // After stop, manual stepping works again (queue drained by the driver,
    // so one step reports no work).
    EXPECT_FALSE(d.engine->step());
}

TEST(ServeDriver, StopLeavesUnfinishedWorkForRestart) {
    runtime::ServeDeployment d = deploy();
    // 40 decode steps: long enough that the stop below lands mid-request,
    // short enough to stay inside micro-256's 64-token context window.
    runtime::RequestHandle h = d.engine->submit(
        runtime::ServeRequest{.prompt = "survives restart", .max_new_tokens = 40});
    d.engine->run();
    // Let the driver make some progress, then stop mid-request.
    while (d.engine->active_sessions() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    d.engine->stop();
    ASSERT_FALSE(h.done());  // request still in flight, not dropped

    d.engine->run();  // a fresh driver picks the session back up
    EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(h.get().tokens.size(), 40u);
    d.engine->stop();
}

TEST(ServeDriver, CallbackExceptionParksAndRethrowsFromStop) {
    runtime::ServeDeployment d = deploy();
    d.engine->run();
    // max_new = 1: the request retires (budget) at the same boundary whose
    // callback throws, so its future resolves before the driver parks the
    // error and exits.
    runtime::RequestHandle h = d.engine->submit(runtime::ServeRequest{
        .prompt = "boom",
        .max_new_tokens = 1,
        .on_token = [](std::int32_t, std::string_view) {
            throw std::runtime_error("callback exploded");
        }});
    (void)h.get();  // token boundary completes; the future still resolves
    // The driver parked the error and exited; stop() surfaces it.
    while (d.engine->running()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_THROW(d.engine->stop(), std::runtime_error);
    d.engine->stop();  // error consumed; now a no-op
}

TEST(ServeDriver, WaitUntilIdleWithoutDriverDrivesInline) {
    runtime::ServeDeployment d = deploy();
    runtime::RequestHandle h = d.engine->submit(
        runtime::ServeRequest{.prompt = "inline", .max_new_tokens = 3});
    d.engine->wait_until_idle();  // no driver: equivalent to run_until_idle
    EXPECT_EQ(h.get().tokens.size(), 3u);
}

TEST(ServeDriver, PagedServingUnderTheDriver) {
    // The governor's defer/admit cycle works the same when the driver owns
    // the loop: capacity serializes, everyone finishes.
    ServeOptions o;
    o.max_batch = 4;
    o.paging = true;
    o.kv_page_tokens = 8;
    o.kv_pool_pages = 4;  // 32 tokens aggregate
    runtime::ServeDeployment d = deploy(o);
    d.engine->run();
    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.engine->submit(runtime::ServeRequest{
            .prompt = "pg " + std::to_string(r), .max_new_tokens = 8}));
    }
    for (auto& h : hs) EXPECT_EQ(h.get().tokens.size(), 8u);
    d.engine->wait_until_idle();
    d.engine->stop();
    EXPECT_EQ(d.engine->stats().peak_batch, 2u);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
}

TEST(ServeDriver, BackendFaultFiresCallbackAndResolvesEveryHandle) {
    ServeOptions o;
    o.fault_spec = "step:4";  // dies after the first sampled tokens
    o.max_batch = 1;          // the second request stays queued until the end
    runtime::ServeDeployment d = deploy(o);

    std::atomic<int> reported{0};
    std::exception_ptr seen;
    d.engine->set_on_failure([&](const std::exception_ptr& e) {
        // By contract the engine is already marked failed when this fires.
        EXPECT_TRUE(d.engine->failed());
        seen = e;
        reported.fetch_add(1);
    });

    runtime::RequestHandle inflight = d.engine->submit(
        runtime::ServeRequest{.prompt = "f", .max_new_tokens = 8});
    runtime::RequestHandle queued = d.engine->submit(
        runtime::ServeRequest{.prompt = "never admitted, queue of one slot",
                              .max_new_tokens = 8});
    d.engine->run();

    // Without a cluster above it, the engine resolves its own dead: both
    // futures come back kShardFailure — neither hangs — with whatever was
    // streamed before the fault preserved.
    EXPECT_EQ(inflight.get().finish_reason, FinishReason::kShardFailure);
    EXPECT_EQ(queued.get().finish_reason, FinishReason::kShardFailure);
    EXPECT_FALSE(inflight.get().tokens.empty());  // mid-stream when killed
    EXPECT_LT(inflight.get().tokens.size(), 8u);
    EXPECT_TRUE(queued.get().tokens.empty());

    EXPECT_EQ(reported.load(), 1);  // at most once, even with two casualties
    ASSERT_NE(seen, nullptr);
    EXPECT_THROW(std::rethrow_exception(seen), engine::BackendFault);
    EXPECT_NE(d.engine->failure(), nullptr);
    EXPECT_EQ(d.engine->stats_snapshot().backend_failures, 1u);
    EXPECT_EQ(d.engine->stats_snapshot().requests_lost, 2u);

    // A backend fault is reported through the callback, not parked like a
    // callback error: stop() must NOT rethrow it...
    EXPECT_NO_THROW(d.engine->stop());
    // ...and a failed engine refuses to serve again.
    EXPECT_THROW(d.engine->run(), efld::Error);
}

TEST(ServeDriver, SubmitAfterFailureResolvesInsteadOfQueueingForever) {
    ServeOptions o;
    o.fault_spec = "step:1";
    runtime::ServeDeployment d = deploy(o);
    runtime::RequestHandle victim = d.engine->submit(
        runtime::ServeRequest{.prompt = "v", .max_new_tokens = 2});
    d.engine->run();
    EXPECT_EQ(victim.get().finish_reason, FinishReason::kShardFailure);

    // The engine is dead; a straggler submit still gets a resolving handle
    // (kShardFailure), never a request parked on a queue nobody will drain.
    runtime::RequestHandle late = d.engine->submit(
        runtime::ServeRequest{.prompt = "late", .max_new_tokens = 2});
    EXPECT_EQ(late.get().finish_reason, FinishReason::kShardFailure);
    d.engine->stop();
}

TEST(ServeDriver, TakeUnfinishedIsForFailedEnginesOnly) {
    runtime::ServeDeployment d = deploy();
    EXPECT_THROW((void)d.engine->take_unfinished(), efld::Error);
}

TEST(ServeDriver, HandlesOutliveTheEngine) {
    // Inert-handle guarantee: destruction resolves outstanding futures with
    // kShardFailure (partial tokens preserved), and the surviving handle's
    // cancel()/get() stay safe with the engine gone.
    std::optional<runtime::RequestHandle> queued_h;
    std::optional<runtime::RequestHandle> inflight_h;
    {
        ServeOptions o;
        o.max_batch = 1;  // keeps the second request queued at teardown
        runtime::ServeDeployment d = deploy(o);
        inflight_h = d.engine->submit(
            runtime::ServeRequest{.prompt = "mid", .max_new_tokens = 40});
        queued_h = d.engine->submit(runtime::ServeRequest{
            .prompt = "still queued at teardown", .max_new_tokens = 40});
        d.engine->run();
        while (d.engine->active_sessions() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        d.engine->stop();  // leaves one active session + one queued request
    }  // engine destroyed here
    EXPECT_EQ(inflight_h->get().finish_reason, FinishReason::kShardFailure);
    EXPECT_EQ(queued_h->get().finish_reason, FinishReason::kShardFailure);
    EXPECT_TRUE(queued_h->get().tokens.empty());
    inflight_h->cancel();  // writes shared state the handle co-owns; no UAF
    EXPECT_TRUE(inflight_h->done());
}

}  // namespace
}  // namespace efld::serve
