// Prefix-affinity routing: the placement policy, sharers co-locating onto
// the shard that holds their prefix (and beating best-fit's hit rate on the
// same budget), and failover of a shared-prefix session rebuilding through
// the survivor's index instead of re-prefilling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::cluster {
namespace {

// 2 shards, 8-token pages, 9-page pools: one 32-token-prompt + 8-new request
// is a 5-page worst case, so a shard holds two sharers (discounted to 2
// pages each) but not two strangers.
ClusterOptions cluster_opts(PlacementPolicy policy) {
    ClusterOptions o;
    o.shards = 2;
    o.placement = policy;
    o.shard.max_batch = 4;
    o.shard.paging = true;
    o.shard.kv_page_tokens = 8;
    o.shard.kv_pool_pages = 9;
    o.shard.prefix_sharing = true;
    o.shard.sampler.temperature = 0.0f;
    return o;
}

const std::string kSysPrompt(31, 's');  // 32 tokens with BOS: 4 aligned pages

std::unique_ptr<Placement> affinity() {
    return make_placement(PlacementPolicy::kPrefixAffinity);
}

ShardLoad paged_shard(std::size_t free, std::size_t covered) {
    ShardLoad s;
    s.queue_capacity = 8;
    s.paging = true;
    s.total_pages = 16;
    s.committed_pages = 16 - free;
    s.prefix_covered_tokens = covered;
    return s;
}

TEST(PrefixAffinityPlacement, DeepestCoverageWinsTiesBreakTighter) {
    auto p = affinity();
    std::vector<ShardLoad> shards = {paged_shard(8, 16), paged_shard(8, 24),
                                     paged_shard(8, 24)};
    // Deepest coverage wins; among equals the tighter (fewer free pages)
    // shard does, then the lower index.
    EXPECT_EQ(p->pick(shards, 2), 1u);
    shards[2].committed_pages += 2;  // shard 2 now tighter at equal coverage
    EXPECT_EQ(p->pick(shards, 2), 2u);
    EXPECT_EQ(p->name(), "prefix-affinity");
}

TEST(PrefixAffinityPlacement, IgnoresCoverageOnIneligibleShards) {
    auto p = affinity();
    std::vector<ShardLoad> shards = {paged_shard(8, 24), paged_shard(8, 8)};
    shards[0].healthy = false;
    EXPECT_EQ(p->pick(shards, 2), 1u);  // dead shard's cache is not capacity
    shards[1].queued = shards[1].queue_capacity;  // full queue: also ineligible
    EXPECT_EQ(p->pick(shards, 2), kNoShard);
}

TEST(PrefixAffinityPlacement, FallsBackToBestFitWhenNoShardCovers) {
    auto p = affinity();
    // No coverage anywhere: must behave exactly like best-fit (tightest
    // slack that fits).
    std::vector<ShardLoad> shards = {paged_shard(8, 0), paged_shard(4, 0)};
    EXPECT_EQ(p->pick(shards, 2), 1u);
    EXPECT_EQ(make_placement(PlacementPolicy::kBestFitPages)->pick(shards, 2), 1u);
}

TEST(PrefixAffinityPlacement, ParsesAndPrints) {
    EXPECT_EQ(placement_policy_from_string("prefix-affinity"),
              PlacementPolicy::kPrefixAffinity);
    EXPECT_EQ(placement_policy_from_string("prefix"),
              PlacementPolicy::kPrefixAffinity);
    EXPECT_EQ(to_string(PlacementPolicy::kPrefixAffinity), "prefix-affinity");
}

// Warm one request through the router, then 4 same-prefix followers. The
// affinity cluster piles every follower onto the warm shard — 4 hits out of
// 4 — while best-fit splits them across shards and pays a cold re-prefill on
// the far side. Same budget, same traffic: the hit rate is the policy's win.
std::size_t run_followers(PlacementPolicy policy, std::size_t* far_requests) {
    runtime::ClusterDeployment d = runtime::synthetic_cluster(
        model::ModelConfig::micro_256(), 42, cluster_opts(policy));
    runtime::RequestHandle warm = d.router->submit(
        runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 8});
    d.router->drain();
    EXPECT_EQ(warm.get().tokens.size(), 8u);

    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.router->submit(
            runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 8}));
    }
    d.router->drain();
    std::vector<std::int32_t> first = hs.front().get().tokens;
    for (auto& h : hs) EXPECT_EQ(h.get().tokens, first);  // sharers identical

    std::size_t hits = 0;
    for (std::size_t i = 0; i < d.router->shard_count(); ++i) {
        hits += d.router->shard(i).stats().prefix_hits;
    }
    // The warm request landed on shard 0 (best-fit tie-break) under both
    // policies; "far" is everything shard 1 served.
    *far_requests = d.router->shard(1).stats().requests_completed;
    return hits;
}

TEST(ClusterPrefix, AffinityBeatsBestFitOnHitRate) {
    std::size_t far_affinity = 0;
    std::size_t far_bestfit = 0;
    const std::size_t affinity_hits =
        run_followers(PlacementPolicy::kPrefixAffinity, &far_affinity);
    const std::size_t bestfit_hits =
        run_followers(PlacementPolicy::kBestFitPages, &far_bestfit);
    EXPECT_EQ(affinity_hits, 4u);   // every follower adopted
    EXPECT_EQ(far_affinity, 0u);    // all of them on the warm shard
    EXPECT_GT(far_bestfit, 0u);     // best-fit sent someone to the cold shard
    EXPECT_GT(affinity_hits, bestfit_hits);
}

TEST(ClusterPrefix, FailoverRebuildsSharedPrefixThroughSurvivorIndex) {
    // Both shards warmed with the system prompt, then a long request lands on
    // shard 0 (affinity tie-break) and shard 0 dies mid-stream. The survivor
    // must rebuild the displaced session by ADOPTING its prompt from the
    // index — the trace shows a prefix hit on shard 1 after the resubmission
    // — and the tokens still match a fault-free solo run exactly.
    auto trace = std::make_shared<obs::TraceRecorder>(2048);
    ClusterOptions opts = cluster_opts(PlacementPolicy::kPrefixAffinity);
    opts.shard.trace = trace;
    // The two warm runs below consume 9 driver steps on each shard (two
    // 16-row prompt tiles, then 7 decode steps); the victim then samples
    // from step 10 on shard 0, so step 15 kills it mid-stream with a
    // handful of tokens already delivered.
    opts.shard_fault_specs = {"step:15"};
    runtime::ClusterDeployment d = runtime::synthetic_cluster(
        model::ModelConfig::micro_256(), 42, opts);

    // Warm each shard's index directly (inline stepping, drivers not up).
    for (std::size_t i = 0; i < 2; ++i) {
        runtime::RequestHandle w = d.router->shard(i).submit(
            runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 8});
        d.router->shard(i).run_until_idle();
        EXPECT_EQ(w.get().tokens.size(), 8u);
        EXPECT_GT(d.router->shard(i).load().shared_pages, 0u);
    }

    runtime::RequestHandle victim = d.router->submit(
        runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 12});
    d.router->start();
    const runtime::ServeResult& res = victim.get();
    d.router->stop();

    ASSERT_EQ(res.failovers, 1u);
    EXPECT_EQ(res.finish_reason, serve::FinishReason::kBudget);
    EXPECT_EQ(res.tokens.size(), 12u);

    const std::vector<obs::TraceRecord> ev = trace->for_request(res.id);
    // Anchor on the harvest: it is recorded by the dying shard BEFORE the
    // resubmission enqueues, so everything the survivor does sits after it in
    // the ring. (kResubmitted itself is traced by the failed shard's thread
    // and can land after the survivor's admission — not an ordering anchor.)
    EXPECT_TRUE(std::any_of(ev.begin(), ev.end(), [](const obs::TraceRecord& r) {
        return r.event == obs::TraceEvent::kResubmitted;
    }));
    const auto harvest = std::find_if(
        ev.begin(), ev.end(), [](const obs::TraceRecord& r) {
            return r.event == obs::TraceEvent::kFailoverHarvest;
        });
    ASSERT_NE(harvest, ev.end());
    // The rebuild adopted the prompt's 31 coverable tokens from the
    // survivor's index — after the harvest, on shard 1, without
    // re-prefilling the covered pages.
    const auto rebuilt = std::find_if(
        harvest, ev.end(), [](const obs::TraceRecord& r) {
            return r.event == obs::TraceEvent::kPrefixHit;
        });
    ASSERT_NE(rebuilt, ev.end());
    EXPECT_EQ(rebuilt->shard, 1u);
    EXPECT_EQ(rebuilt->arg, 31u);
    EXPECT_EQ(std::count_if(ev.begin(), ev.end(),
                            [](const obs::TraceRecord& r) {
                                return r.event == obs::TraceEvent::kFirstToken;
                            }),
              1);

    // Bit-parity through displacement + adoption: a fault-free, sharing-free
    // solo engine serves the same request identically.
    serve::ServeOptions solo_opts;
    solo_opts.sampler.temperature = 0.0f;
    runtime::ServeDeployment solo =
        runtime::synthetic_serve(model::ModelConfig::micro_256(), 42, solo_opts);
    runtime::RequestHandle sh = solo.engine->submit(
        runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 12});
    solo.engine->run_until_idle();
    EXPECT_EQ(res.tokens, sh.get().tokens);
}

TEST(ClusterPrefix, ConcurrentSubmissionsProbeLiveIndexes) {
    // Router-thread probes race the shard drivers' index mutations: the
    // TSan-visible path. No placement assertions — just that every sharer
    // completes identically while probe/adopt/register run concurrently.
    runtime::ClusterDeployment d = runtime::synthetic_cluster(
        model::ModelConfig::micro_256(), 42,
        cluster_opts(PlacementPolicy::kPrefixAffinity));
    d.router->start();
    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 8; ++r) {
        hs.push_back(d.router->submit(
            runtime::ServeRequest{.prompt = kSysPrompt, .max_new_tokens = 6}));
    }
    std::vector<std::int32_t> first = hs.front().get().tokens;
    for (auto& h : hs) EXPECT_EQ(h.get().tokens, first);
    d.router->stop();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < d.router->shard_count(); ++i) {
        hits += d.router->shard(i).stats().prefix_hits;
    }
    EXPECT_GT(hits, 0u);  // at least every later sharer on the warm shard
}

}  // namespace
}  // namespace efld::cluster
