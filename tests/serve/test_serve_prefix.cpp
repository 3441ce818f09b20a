// Prefix-sharing serving, on both backends (one page store, one adoption
// rule): adoption skips prefill with bit-identical tokens, a mid-page
// adoption copy-on-writes before diverging, the governor charges
// shared pages once (capacity deferrals DROP under the same DDR budget), a
// starved pool dumps the index rather than refuse admissible work, and the
// whole story lands in metrics and the trace ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

runtime::ServeDeployment deploy(ServeOptions opts, std::uint64_t seed = 42) {
    opts.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_serve(test_cfg(), seed, opts);
}

// Every sharing case runs on both backends: one page store, one rule.
constexpr engine::BackendKind kBothBackends[] = {engine::BackendKind::kHost,
                                                 engine::BackendKind::kAccel};

// 8-token pages over a small pool, sharing on unless asked otherwise.
ServeOptions sharing_opts(engine::BackendKind backend, std::size_t pool_pages,
                          bool sharing = true) {
    ServeOptions o;
    o.backend = backend;
    o.max_batch = 4;
    o.paging = true;
    o.kv_page_tokens = 8;
    o.kv_pool_pages = pool_pages;
    o.prefix_sharing = sharing;
    return o;
}

// A prompt of `chars` characters tokenizes to chars+1 ids (BOS first), so 23
// chars = 24 tokens = 3 aligned 8-token pages, and 31 chars = 32 tokens = 4
// aligned pages whose full match forces the mid-page CoW adoption.
std::string prompt_of(std::size_t chars, char fill = 's') {
    return std::string(chars, fill);
}

std::vector<std::int32_t> run_one(runtime::ServeDeployment& d,
                                  const std::string& prompt,
                                  std::size_t max_new = 8) {
    runtime::RequestHandle h = d.engine->submit(
        runtime::ServeRequest{.prompt = prompt, .max_new_tokens = max_new});
    d.engine->run_until_idle();
    return h.get().tokens;
}

TEST(ServePrefix, RequiresPaging) {
    ServeOptions o;
    o.prefix_sharing = true;
    EXPECT_THROW(deploy(o), std::invalid_argument);
}

TEST(ServePrefix, SecondSessionAdoptsWithBitIdenticalTokens) {
    // Both backends: the adopter must emit exactly the tokens a no-sharing
    // engine emits — shared pages are a capacity trick, never a model change.
    for (const engine::BackendKind kind : kBothBackends) {
        runtime::ServeDeployment ds = deploy(sharing_opts(kind, 16));
        runtime::ServeDeployment dn = deploy(sharing_opts(kind, 16, /*sharing=*/false));

        const std::string sys = prompt_of(25);  // 26 tokens: 3 full pages + 2
        const auto warm_s = run_one(ds, sys);
        const auto warm_n = run_one(dn, sys);
        EXPECT_EQ(warm_s, warm_n) << engine::to_string(kind);
        EXPECT_EQ(ds.engine->stats().prefix_hits, 0u);  // cold index

        const auto hit_s = run_one(ds, sys);
        const auto hit_n = run_one(dn, sys);
        EXPECT_EQ(hit_s, hit_n) << engine::to_string(kind);
        EXPECT_EQ(ds.engine->stats().prefix_hits, 1u) << engine::to_string(kind);
        // 3 full pages = 24 of the 26 prompt tokens never re-prefilled.
        EXPECT_EQ(ds.engine->stats().prefix_hit_tokens, 24u)
            << engine::to_string(kind);
        EXPECT_EQ(dn.engine->stats().prefix_hits, 0u);
        EXPECT_GT(ds.engine->load().shared_pages, 0u);
    }
}

TEST(ServePrefix, PageAlignedFullMatchCopiesOnWrite) {
    // A 32-token prompt fully matched: adoption caps at 31 tokens, landing
    // mid-page in the still-shared 4th page, so the re-fed last prompt token
    // must take a private copy before it writes — and both the pool counter
    // and the trace ring must say so, in order, exactly once. Both backends
    // share one page store and one adoption rule, so both say the same.
    for (const engine::BackendKind kind : kBothBackends) {
        SCOPED_TRACE(engine::to_string(kind));
        auto trace = std::make_shared<obs::TraceRecorder>(1024);
        ServeOptions o = sharing_opts(kind, 16);
        o.trace = trace;
        runtime::ServeDeployment d = deploy(o);

        const std::string sys = prompt_of(31);  // 32 tokens: 4 aligned pages
        (void)run_one(d, sys);
        ASSERT_EQ(d.engine->load().prefix.cow_copies, 0u);

        runtime::RequestHandle h = d.engine->submit(
            runtime::ServeRequest{.prompt = sys, .max_new_tokens = 8});
        d.engine->run_until_idle();
        const runtime::ServeResult& res = h.get();
        EXPECT_EQ(res.tokens.size(), 8u);
        EXPECT_EQ(d.engine->stats().prefix_hits, 1u);
        EXPECT_EQ(d.engine->stats().prefix_hit_tokens, 31u);  // prompt-1, mid-page
        EXPECT_EQ(d.engine->load().prefix.cow_copies, 1u);

        const std::vector<obs::TraceRecord> ev = trace->for_request(res.id);
        const auto find = [&](obs::TraceEvent e) {
            return std::find_if(ev.begin(), ev.end(), [e](const obs::TraceRecord& r) {
                return r.event == e;
            });
        };
        const auto admitted = find(obs::TraceEvent::kAdmitted);
        const auto hit = find(obs::TraceEvent::kPrefixHit);
        const auto cow = find(obs::TraceEvent::kCowCopy);
        const auto prefill_done = find(obs::TraceEvent::kPrefillDone);
        ASSERT_NE(hit, ev.end());
        ASSERT_NE(cow, ev.end());
        EXPECT_EQ(hit->arg, 31u);
        EXPECT_LT(admitted - ev.begin(), hit - ev.begin());
        EXPECT_LT(hit - ev.begin(), cow - ev.begin());
        EXPECT_LT(cow - ev.begin(), prefill_done - ev.begin());
        EXPECT_EQ(std::count_if(ev.begin(), ev.end(),
                                [](const obs::TraceRecord& r) {
                                    return r.event == obs::TraceEvent::kCowCopy;
                                }),
                  1);

        // Divergence isolated: the CoW'd session's tokens still match a solo
        // run.
        runtime::ServeDeployment solo = deploy(sharing_opts(kind, 16, /*sharing=*/false));
        (void)run_one(solo, sys);
        EXPECT_EQ(res.tokens, run_one(solo, sys));
    }
}

TEST(ServePrefix, SharingDropsCapacityDeferralsUnderSameBudget) {
    // A 9-page pool, 32-token prompt, 8 new tokens (5-page worst case). Two
    // concurrent sessions WITHOUT sharing need 10 pages — one must defer, so
    // they run one at a time. WITH sharing the second session is discounted
    // its 3 fully covered pages (the 4th, partially covered, stays charged to
    // fund its CoW), so both fit: twice the sessions on the same budget, and
    // deferrals drop to zero. Each adopted token is a prompt token never fed,
    // which is the whole of sharing's time-to-first-token cut.
    const std::string sys = prompt_of(31);
    for (const engine::BackendKind kind : kBothBackends) {
        SCOPED_TRACE(engine::to_string(kind));
        ServeStats stats[2];
        std::vector<std::vector<std::int32_t>> tokens[2];
        int which = 0;
        for (const bool sharing : {false, true}) {
            runtime::ServeDeployment d = deploy(sharing_opts(kind, 9, sharing));
            (void)run_one(d, sys);  // warm the index (both configs for symmetry)
            std::vector<runtime::RequestHandle> hs;
            for (int r = 0; r < 2; ++r) {
                hs.push_back(d.engine->submit(
                    runtime::ServeRequest{.prompt = sys, .max_new_tokens = 8}));
            }
            d.engine->run_until_idle();
            for (auto& h : hs) tokens[which].push_back(h.get().tokens);
            stats[which] = d.engine->stats();
            ++which;
        }
        EXPECT_EQ(stats[0].peak_batch, 1u);  // no sharing: one at a time
        EXPECT_GT(stats[0].capacity_deferrals, 0u);  // the pool can't hold both
        EXPECT_EQ(stats[1].prefix_hits, 2u);  // every follower adopted
        EXPECT_EQ(stats[1].peak_batch, 2u);   // sharing: truly concurrent
        EXPECT_EQ(stats[1].capacity_deferrals, 0u);  // both admitted outright
        EXPECT_EQ(stats[0].prompt_tokens - stats[1].prompt_tokens,
                  stats[1].prefix_hit_tokens);
        EXPECT_GT(stats[1].prefix_hit_tokens, 0u);
        EXPECT_EQ(tokens[0], tokens[1]);  // and not by changing a single token
    }
}

TEST(ServePrefix, StarvedPoolDropsIndexInsteadOfRefusingWork) {
    // 6-page pool: serving one 24-token prompt leaves 3 pages pinned by the
    // index. A 40-token unique prompt then demands all 6 pages — with nothing
    // active, the engine must dump the cache and admit rather than starve.
    for (const engine::BackendKind kind : kBothBackends) {
        SCOPED_TRACE(engine::to_string(kind));
        runtime::ServeDeployment d = deploy(sharing_opts(kind, 6));
        (void)run_one(d, prompt_of(23));
        EXPECT_GT(d.engine->load().shared_pages, 0u);

        const auto big = run_one(d, prompt_of(39, 'u'));
        EXPECT_EQ(big.size(), 8u);
        EXPECT_EQ(d.engine->stats().prefix_cache_drops, 1u);
        EXPECT_EQ(d.engine->load().shared_pages, 0u);
        EXPECT_EQ(d.engine->load().prefix.pages_shared, 0u);

        runtime::ServeDeployment solo = deploy(sharing_opts(kind, 6, /*sharing=*/false));
        EXPECT_EQ(big, run_one(solo, prompt_of(39, 'u')));
    }
}

TEST(ServePrefix, MetricsNameTheWholeStory) {
    for (const engine::BackendKind kind : kBothBackends) {
        SCOPED_TRACE(engine::to_string(kind));
        runtime::ServeDeployment d = deploy(sharing_opts(kind, 16));
        const std::string sys = prompt_of(31);
        (void)run_one(d, sys);
        (void)run_one(d, sys);

        const obs::MetricsSnapshot m = d.engine->metrics_snapshot();
        EXPECT_EQ(m.counters.at("serve_prefix_hits_total"), 1u);
        EXPECT_EQ(m.counters.at("serve_prefix_covered_tokens_total"), 31u);
        EXPECT_EQ(m.counters.at("serve_prefix_cow_copies_total"), 1u);
        EXPECT_EQ(m.counters.at("serve_prefix_cache_drops_total"), 0u);
        EXPECT_GE(m.gauges.at("serve_prefix_pages_shared"), 1.0);

        // Sharing off: the series are absent, not zero — scrapes stay honest
        // about what the engine is actually doing.
        runtime::ServeDeployment solo = deploy(sharing_opts(kind, 16, /*sharing=*/false));
        (void)run_one(solo, sys);
        const obs::MetricsSnapshot ms = solo.engine->metrics_snapshot();
        EXPECT_EQ(ms.counters.count("serve_prefix_hits_total"), 0u);
        EXPECT_EQ(ms.gauges.count("serve_prefix_pages_shared"), 0u);
    }
}

}  // namespace
}  // namespace efld::serve
