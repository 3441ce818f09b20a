// Capacity-aware serving: the governor defers what does not fit the page
// pool, retirement (any reason) returns pages and lets deferred work in,
// finish reasons name every outcome, and paged serving is token-identical to
// static full-context reservations on both backends while serving more
// sessions from the same KV budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "kvpool/kv_block_pool.hpp"
#include "model/reference_engine.hpp"
#include "obs/clock.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

runtime::ServeDeployment deploy(ServeOptions opts, std::uint64_t seed = 42) {
    opts.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_serve(test_cfg(), seed, opts);
}

// Serve options with a deliberately tiny pool: `pool_tokens` of aggregate KV
// capacity in 8-token pages.
ServeOptions tiny_pool(std::size_t pool_tokens, std::size_t max_batch = 4) {
    ServeOptions o;
    o.max_batch = max_batch;
    o.paging = true;
    o.kv_page_tokens = 8;
    o.kv_pool_pages = pool_tokens / 8;
    return o;
}

TEST(ServePaging, GovernorSizedFromKv260PlanByDefault) {
    ServeOptions o;
    o.paging = true;
    runtime::ServeDeployment d = deploy(o);
    const kvpool::CapacityGovernor* g = d.engine->governor();
    ASSERT_NE(g, nullptr);
    model::QuantScheme scheme = model::QuantScheme::w4a16_kv8();
    const runtime::MemoryPlan plan =
        runtime::MemoryPlanner::plan_kv260(test_cfg(), scheme);
    EXPECT_EQ(g->total_pages(),
              kvpool::pages_for_budget(test_cfg(), scheme,
                                       kvpool::kv_budget_from_plan(plan), 16));
    // micro-256 weights are tiny: nearly the whole 4 GiB backs KV pages.
    EXPECT_GT(g->total_pages(), 1000u);
}

TEST(ServePaging, GovernorPricesTheStoredKv8RowAtAnyKvBits) {
    // The KV8 arena stores one byte per code whatever grid kv_bits picks, so
    // a KV4 engine's plan-sized governor holds as many pages as a KV8 one.
    // The backend brings its own small pool: only the governor is plan-sized.
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 1), quant::GroupQuantConfig{});
    auto backend = std::make_unique<model::ReferenceEngine>(
        qw, model::EngineOptions{.use_kv8 = true, .kv_bits = 4, .kv_pool_pages = 8});
    ServeOptions o;
    o.paging = true;
    o.kv_bits = 4;
    ServeEngine eng(std::move(backend), o);
    ASSERT_NE(eng.governor(), nullptr);
    const model::QuantScheme kv8 = model::QuantScheme::w4a16_kv8();
    EXPECT_EQ(eng.governor()->total_pages(),
              kvpool::pages_for_budget(
                  test_cfg(), kv8,
                  kvpool::kv_budget_from_plan(runtime::MemoryPlanner::plan_kv260(test_cfg(), kv8)),
                  16));
}

TEST(ServePaging, PoolPressureDefersAndSerializesButServesEveryone) {
    // Pool of 32 tokens; each request demands 2 pages (prompt ~5 + 8 new =
    // 13 tokens -> ceil(13/8) = 2). Four slots are free, but only two
    // requests fit the pool at once.
    runtime::ServeDeployment d = deploy(tiny_pool(32));
    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.engine->submit(
            runtime::ServeRequest{.prompt = "req " + std::to_string(r),
                                  .max_new_tokens = 8}));
    }
    d.engine->run_until_idle();

    std::size_t deferred_requests = 0;
    for (auto& h : hs) {
        const ServeResult& r = h.get();
        EXPECT_EQ(r.tokens.size(), 8u);
        EXPECT_EQ(r.finish_reason, FinishReason::kBudget);
        deferred_requests += r.times_deferred > 0 ? 1 : 0;
    }
    // Capacity, not slots, set the concurrency: never more than 2 at once,
    // and the ones that waited say so.
    EXPECT_EQ(d.engine->stats().peak_batch, 2u);
    EXPECT_GT(deferred_requests, 0u);
    EXPECT_GT(d.engine->stats().capacity_deferrals, 0u);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);  // all released
    EXPECT_EQ(d.engine->governor()->stats().peak_committed_pages, 4u);
}

TEST(ServePaging, CancelReleasesPagesAndAdmitsDeferredRequest) {
    // One hog commits the whole 4-page pool; a second request defers behind
    // it. Cancelling the hog must free its pages and let the deferred one in.
    runtime::ServeDeployment d = deploy(tiny_pool(32, 2));
    runtime::RequestHandle hog = d.engine->submit(
        runtime::ServeRequest{.prompt = "hog", .max_new_tokens = 27});  // 4 pages
    runtime::RequestHandle waiter = d.engine->submit(
        runtime::ServeRequest{.prompt = "waiter", .max_new_tokens = 8});

    for (int i = 0; i < 4; ++i) ASSERT_TRUE(d.engine->step());
    EXPECT_EQ(d.engine->active_sessions(), 1u);  // waiter deferred, not admitted
    EXPECT_EQ(d.engine->governor()->committed_pages(), 4u);

    hog.cancel();
    d.engine->run_until_idle();
    EXPECT_EQ(hog.get().finish_reason, FinishReason::kCancelled);
    EXPECT_LT(hog.get().tokens.size(), 27u);  // partial output kept
    const ServeResult& w = waiter.get();
    EXPECT_EQ(w.finish_reason, FinishReason::kBudget);
    EXPECT_EQ(w.tokens.size(), 8u);
    EXPECT_GT(w.times_deferred, 0u);  // it did wait for capacity
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
}

TEST(ServePaging, DeadlineRetirementReleasesPagesToo) {
    // Same shape, but the hog dies by deadline instead of cancel: the waiter
    // must still inherit the freed pages.
    // The deadline is on the engine's clock, so a ManualClock moves it.
    auto clock = std::make_shared<obs::ManualClock>(1'000'000'000);
    ServeOptions o = tiny_pool(32, 2);
    o.clock = clock;
    runtime::ServeDeployment d = deploy(o);
    runtime::RequestHandle hog = d.engine->submit(runtime::ServeRequest{
        .prompt = "hog",
        .max_new_tokens = 27,
        .deadline = obs::time_point(*clock) + std::chrono::milliseconds(50)});
    runtime::RequestHandle waiter = d.engine->submit(
        runtime::ServeRequest{.prompt = "waiter", .max_new_tokens = 8});

    ASSERT_TRUE(d.engine->step());  // hog admitted, whole pool committed
    EXPECT_EQ(d.engine->governor()->committed_pages(), 4u);
    clock->advance_ns(50'000'000);  // the next step's boundary is the deadline
    d.engine->run_until_idle();

    EXPECT_EQ(hog.get().finish_reason, FinishReason::kDeadline);
    EXPECT_EQ(waiter.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(waiter.get().tokens.size(), 8u);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
    EXPECT_EQ(d.engine->stats().requests_expired, 1u);
}

TEST(ServePaging, FinishReasonsNameEveryRetirementPath) {
    ServeOptions o;
    o.max_batch = 2;
    runtime::ServeDeployment d = deploy(o);

    // budget
    runtime::RequestHandle budget =
        d.engine->submit(runtime::ServeRequest{.prompt = "aa", .max_new_tokens = 3});
    // cancelled (queued -> shed)
    runtime::RequestHandle cancelled =
        d.engine->submit(runtime::ServeRequest{.prompt = "bb", .max_new_tokens = 3});
    cancelled.cancel();
    // deadline already passed (shed from the queue)
    runtime::RequestHandle late = d.engine->submit(
        runtime::ServeRequest{.prompt = "cc",
                              .max_new_tokens = 3,
                              .deadline = std::chrono::steady_clock::now()});
    d.engine->run_until_idle();

    EXPECT_EQ(budget.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(cancelled.get().finish_reason, FinishReason::kCancelled);
    EXPECT_EQ(late.get().finish_reason, FinishReason::kDeadline);
    EXPECT_EQ(to_string(FinishReason::kContextOverflow), "context_overflow");

    // zero-budget requests resolve as budget-complete without a slot
    runtime::RequestHandle zero =
        d.engine->submit(runtime::ServeRequest{.prompt = "dd", .max_new_tokens = 0});
    EXPECT_EQ(zero.get().finish_reason, FinishReason::kBudget);
}

TEST(ServePaging, OversizedRequestRejectedAtSubmit) {
    runtime::ServeDeployment d = deploy(tiny_pool(32));
    // Demand 5 pages > 4-page pool: would defer forever, so submit throws.
    EXPECT_THROW((void)d.engine->submit(runtime::ServeRequest{
                     .prompt = "too big", .max_new_tokens = 33}),
                 efld::Error);
    // The pool bound is the aggregate-capacity bound, tighter than the
    // context-window bound the contiguous path enforces.
}

TEST(ServePaging, CallbackExceptionReleasesRetiredCommitment) {
    // The thrower retires (budget) at the same token boundary whose callback
    // throws: retire() must release its pages BEFORE step() rethrows, or the
    // pool leaks a commitment every time a callback misbehaves.
    runtime::ServeDeployment d = deploy(tiny_pool(32, 2));
    runtime::RequestHandle boom = d.engine->submit(runtime::ServeRequest{
        .prompt = "boom",
        .max_new_tokens = 1,
        .on_token = [](std::int32_t, std::string_view) {
            throw std::runtime_error("callback exploded");
        }});
    EXPECT_THROW(d.engine->run_until_idle(), std::runtime_error);
    EXPECT_EQ(boom.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
}

TEST(ServePaging, CallbackExceptionKeepsLiveCommitmentUntilRetirement) {
    // A thrower that does NOT retire at the throwing boundary stays active
    // and rightfully holds its pages; cancelling it must then release them
    // through the normal retirement path (cancel is observed at the next
    // boundary's control-plane pass, before any further callback fires).
    runtime::ServeDeployment d = deploy(tiny_pool(32, 2));
    runtime::RequestHandle boom = d.engine->submit(runtime::ServeRequest{
        .prompt = "boom2",
        .max_new_tokens = 5,  // 2 pages; does not finish at the throw
        .on_token = [](std::int32_t, std::string_view) {
            throw std::runtime_error("callback exploded");
        }});
    EXPECT_THROW(d.engine->run_until_idle(), std::runtime_error);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 2u);  // still live
    EXPECT_EQ(d.engine->active_sessions(), 1u);

    boom.cancel();
    d.engine->run_until_idle();  // retires before the callback could re-throw
    EXPECT_EQ(boom.get().finish_reason, FinishReason::kCancelled);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
}

TEST(ServePaging, StopWithActiveSessionsKeepsCommitmentsForRestart) {
    // stop() parks in-flight sessions for a later run()/step(); their pages
    // must stay committed while parked (the work is resumable) and release
    // through whatever retirement eventually claims them.
    //
    // The first token's callback blocks the driver mid-boundary until this
    // thread has called stop() — releasing it and requesting the stop
    // happen while the driver is provably inside the request, so the stop
    // deterministically lands with the session active (a timing poll could
    // miss a fast request entirely and spin forever).
    runtime::ServeDeployment d = deploy(tiny_pool(32, 2));
    std::atomic<bool> started{false};
    std::atomic<bool> released{false};
    runtime::RequestHandle hog = d.engine->submit(runtime::ServeRequest{
        .prompt = "hog",
        .max_new_tokens = 27,  // 4 pages: the whole pool
        .on_token = [&](std::int32_t, std::string_view) {
            started.store(true);
            while (!released.load()) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }});
    d.engine->run();
    while (!started.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The driver is parked inside the first token's boundary: the session is
    // active and its commitment held. Release the callback and stop — the
    // driver finishes at most the in-flight step before observing the stop
    // request, so the 27-token budget cannot complete.
    EXPECT_EQ(d.engine->active_sessions(), 1u);
    EXPECT_EQ(d.engine->load().committed_pages, 4u);
    released.store(true);
    d.engine->stop();
    ASSERT_FALSE(hog.done());
    EXPECT_EQ(d.engine->governor()->committed_pages(), 4u);  // parked, not leaked

    hog.cancel();
    d.engine->run_until_idle();  // manual stepping claims the parked session
    EXPECT_EQ(hog.get().finish_reason, FinishReason::kCancelled);
    EXPECT_EQ(d.engine->governor()->committed_pages(), 0u);
}

TEST(ServePaging, OptionValidation) {
    ServeOptions bad_page = tiny_pool(32);
    bad_page.kv_page_tokens = 0;
    EXPECT_THROW(deploy(bad_page), std::invalid_argument);

    ServeOptions stray_pool;
    stray_pool.kv_pool_pages = 8;  // paging off
    EXPECT_THROW(deploy(stray_pool), std::invalid_argument);
}

TEST(ServePaging, PagedTokensIdenticalToContiguousBothBackends) {
    // One DDR budget of 128 KV tokens spent two ways on each backend: as
    // full-context static reservations (128 / max_seq_len = 2 slots, no
    // paging), and as eight 16-token pages behind more slots than pages, so
    // the pool and not the slot count bounds concurrency. Paged requests are
    // charged their real length (one page each), not the context window:
    // the same load runs more sessions at once, more tokens per simulated
    // second on the accel backend, and not a single token changes.
    constexpr std::size_t kPoolTokens = 128;
    constexpr std::size_t kPageTokens = 16;
    for (const engine::BackendKind kind :
         {engine::BackendKind::kHost, engine::BackendKind::kAccel}) {
        SCOPED_TRACE(engine::to_string(kind));
        ServeOptions fixed;
        fixed.backend = kind;
        fixed.max_batch = kPoolTokens / test_cfg().max_seq_len;
        ServeOptions paged;
        paged.backend = kind;
        paged.max_batch = 12;
        paged.paging = true;
        paged.kv_page_tokens = kPageTokens;
        paged.kv_pool_pages = kPoolTokens / kPageTokens;

        std::vector<std::vector<std::int32_t>> outs[2];
        ServeStats stats[2];
        int which = 0;
        for (const ServeOptions& o : {fixed, paged}) {
            runtime::ServeDeployment d = deploy(o);
            std::vector<runtime::RequestHandle> hs;
            for (int r = 0; r < 12; ++r) {
                hs.push_back(d.engine->submit(runtime::ServeRequest{
                    .prompt = "parity " + std::to_string(r),
                    .max_new_tokens = 6}));
            }
            d.engine->run_until_idle();
            for (auto& h : hs) outs[which].push_back(h.get().tokens);
            stats[which] = d.engine->stats();
            ++which;
        }
        EXPECT_EQ(outs[0], outs[1]);
        EXPECT_EQ(stats[0].peak_batch, fixed.max_batch);
        EXPECT_EQ(stats[1].peak_batch, paged.kv_pool_pages);  // one page each
        EXPECT_GT(stats[1].peak_batch, stats[0].peak_batch);
        if (kind == engine::BackendKind::kAccel) {
            EXPECT_GT(stats[1].simulated_tokens_per_s(),
                      stats[0].simulated_tokens_per_s());
        }
    }
}

}  // namespace
}  // namespace efld::serve
