// ClusterRouter: requests sharded across independent engines complete with
// single-engine token parity, backpressure surfaces as 429-style rejection
// instead of exceptions, shard errors propagate through parallel stop(), and
// cluster stats aggregate per-shard loads.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "runtime/serve.hpp"

namespace efld::cluster {
namespace {

runtime::ClusterDeployment deploy(ClusterOptions opts, std::uint64_t seed = 42) {
    opts.shard.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_cluster(model::ModelConfig::micro_256(), seed, opts);
}

TEST(ClusterRouter, ServesAcrossShardsWithSingleEngineParity) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.placement = PlacementPolicy::kLeastLoaded;
    runtime::ClusterDeployment d = deploy(opts);

    // Submit before start: placement is then a deterministic function of
    // queue depths, so the load must split across both shards.
    std::vector<runtime::RequestHandle> handles;
    for (int r = 0; r < 8; ++r) {
        handles.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "cluster " + std::to_string(r), .max_new_tokens = 6}));
    }
    d.router->start();
    EXPECT_TRUE(d.router->running());
    d.router->drain();
    d.router->stop();
    EXPECT_FALSE(d.router->running());

    // Same prompts on a single engine: tokens must match request for request
    // (sessions are independent, so sharding cannot change anyone's output).
    runtime::ServeOptions so;
    so.sampler.temperature = 0.0f;
    runtime::ServeDeployment single =
        runtime::synthetic_serve(model::ModelConfig::micro_256(), 42, so);
    std::vector<runtime::RequestHandle> futs;
    for (int r = 0; r < 8; ++r) {
        futs.push_back(single.engine->submit(runtime::ServeRequest{
            .prompt = "cluster " + std::to_string(r), .max_new_tokens = 6}));
    }
    single.engine->run_until_idle();
    for (std::size_t r = 0; r < handles.size(); ++r) {
        EXPECT_EQ(handles[r].get().tokens, futs[r].get().tokens) << "request " << r;
        EXPECT_EQ(handles[r].get().finish_reason, runtime::FinishReason::kBudget);
    }

    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.requests_completed(), 8u);
    EXPECT_EQ(cs.generated_tokens(), 48u);
    EXPECT_EQ(cs.queued(), 0u);
    EXPECT_EQ(cs.active(), 0u);
    // Deterministic pre-start placement: both shards served work.
    for (const auto& s : cs.shards) EXPECT_GT(s.stats.requests_completed, 0u);
}

TEST(ClusterRouter, TrySubmitRejectsWithRetryHintWhenSaturated) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.max_queue = 1;  // saturates after one queued request per shard
    opts.retry_hint_ms = 7;
    runtime::ClusterDeployment d = deploy(opts);

    // Drivers not started: queues only fill. Two accepts, then 429.
    auto a = d.router->try_submit(
        runtime::ServeRequest{.prompt = "a", .max_new_tokens = 3});
    auto b = d.router->try_submit(
        runtime::ServeRequest{.prompt = "b", .max_new_tokens = 3});
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    EXPECT_NE(a.shard, b.shard);  // least-loaded spread them out

    auto rejected = d.router->try_submit(
        runtime::ServeRequest{.prompt = "c", .max_new_tokens = 3});
    EXPECT_FALSE(rejected.accepted);
    EXPECT_FALSE(rejected.handle.valid());
    EXPECT_GE(rejected.retry_hint, std::chrono::milliseconds(7));

    // submit() surfaces the same condition as an exception.
    EXPECT_THROW((void)d.router->submit(runtime::ServeRequest{
                     .prompt = "d", .max_new_tokens = 3}),
                 efld::Error);

    // Draining makes room again — the rejection was transient backpressure.
    d.router->start();
    d.router->drain();
    auto late = d.router->try_submit(
        runtime::ServeRequest{.prompt = "late", .max_new_tokens = 3});
    EXPECT_TRUE(late.accepted);
    EXPECT_EQ(late.handle.get().tokens.size(), 3u);
    EXPECT_EQ(a.handle.get().tokens.size(), 3u);
    EXPECT_EQ(b.handle.get().tokens.size(), 3u);
    d.router->stop();
}

TEST(ClusterRouter, ImpossibleDemandThrowsInsteadOfRejecting) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 8;
    opts.shard.kv_pool_pages = 4;  // 32 tokens per shard
    runtime::ClusterDeployment d = deploy(opts);
    // Demand 5 pages > every shard's 4-page pool: malformed, not backpressure.
    EXPECT_THROW((void)d.router->try_submit(runtime::ServeRequest{
                     .prompt = "too big", .max_new_tokens = 33}),
                 efld::Error);
    // A demand that fits is still routed normally.
    auto ok = d.router->try_submit(
        runtime::ServeRequest{.prompt = "fits", .max_new_tokens = 8});
    EXPECT_TRUE(ok.accepted);
    d.router->drain();
    EXPECT_EQ(ok.handle.get().tokens.size(), 8u);
}

TEST(ClusterRouter, BestFitRoutesByGovernorHeadroom) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.placement = PlacementPolicy::kBestFitPages;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 8;
    opts.shard.kv_pool_pages = 8;
    runtime::ClusterDeployment d = deploy(opts);

    // Two half-pool requests pack onto shard 0 (best fit tops up the tight
    // shard); the whole-pool request then finds shard 1 empty. Submitted
    // before start, so the routing is deterministic.
    auto s1 = d.router->try_submit(
        runtime::ServeRequest{.prompt = "sm0", .max_new_tokens = 28});  // 4 pages
    auto s2 = d.router->try_submit(
        runtime::ServeRequest{.prompt = "sm1", .max_new_tokens = 28});  // 4 pages
    auto big = d.router->try_submit(
        runtime::ServeRequest{.prompt = "big", .max_new_tokens = 59});  // 8 pages
    ASSERT_TRUE(s1.accepted && s2.accepted && big.accepted);
    EXPECT_EQ(s1.shard, s2.shard);
    EXPECT_NE(big.shard, s1.shard);

    d.router->drain();
    EXPECT_EQ(big.handle.get().tokens.size(), 59u);
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.committed_pages(), 0u);  // every shard released its pages
    EXPECT_EQ(cs.total_pages(), 16u);
}

TEST(ClusterRouter, StopRethrowsShardCallbackError) {
    ClusterOptions opts;
    opts.shards = 2;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    runtime::RequestHandle h = d.router->submit(runtime::ServeRequest{
        .prompt = "boom",
        .max_new_tokens = 1,
        .on_token = [](std::int32_t, std::string_view) {
            throw std::runtime_error("shard callback exploded");
        }});
    (void)h.get();  // the token boundary completes before the driver parks
    // The shard's driver died on the parked error; the router's parallel
    // stop() must still quiesce the OTHER shard, then rethrow.
    EXPECT_THROW(d.router->stop(), std::runtime_error);
    for (std::size_t i = 0; i < d.router->shard_count(); ++i) {
        EXPECT_FALSE(d.router->shard(i).running());
    }
    d.router->stop();  // error consumed; now a no-op
}

TEST(ClusterRouter, DrainWithoutStartDrivesShardsInline) {
    ClusterOptions opts;
    opts.shards = 2;
    runtime::ClusterDeployment d = deploy(opts);
    std::vector<runtime::RequestHandle> handles;
    for (int r = 0; r < 4; ++r) {
        handles.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "inline " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.router->drain();  // no drivers: each shard drains on its own thread
    for (auto& h : handles) EXPECT_EQ(h.get().tokens.size(), 4u);
}

TEST(ClusterRouter, OptionValidation) {
    ClusterOptions zero_shards;
    zero_shards.shards = 0;
    EXPECT_THROW(deploy(zero_shards), std::invalid_argument);

    ClusterOptions zero_hint;
    zero_hint.retry_hint_ms = 0;
    EXPECT_THROW(deploy(zero_hint), std::invalid_argument);

    ClusterOptions bad_shard;
    bad_shard.shard.max_batch = 0;  // shard options validate too
    EXPECT_THROW(deploy(bad_shard), std::invalid_argument);
}

}  // namespace
}  // namespace efld::cluster
