// Continuous-batching serve engine: sessions joining and retiring mid-stream
// must produce exactly the tokens a solo run of each request would, while
// the stats expose the GEMV→GEMM weight-walk amortization.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "engine/generate.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

// The host engine fed one token per slot per step: the feed the serve
// engine used before prompt tiles, kept as the solo oracle's feed and as the
// step-count baseline.
class OneTokenFeed final : public model::ReferenceEngine {
public:
    using ReferenceEngine::ReferenceEngine;
    [[nodiscard]] std::size_t max_feed_tokens() const noexcept override { return 1; }
};

// Replicates one request's generation with engine::generate on a dedicated
// single-session engine fed one token per step — the token-by-token ground
// truth the batched serve loop must match token for token.
std::vector<std::int32_t> solo_generate(const model::QuantizedModelWeights& qw,
                                        const ServeOptions& opts,
                                        const std::string& prompt,
                                        std::size_t max_new) {
    model::ByteTokenizer tok;
    OneTokenFeed eng(qw, {.use_kv8 = opts.use_kv8,
                          .kv_bits = opts.kv_bits,
                          .threads = opts.threads});
    model::Sampler sampler(opts.sampler);
    return engine::generate(eng, eng.reserve_slot(), tok.encode(prompt), max_new, sampler,
                            model::ByteTokenizer::kEos)
        .tokens;
}

struct Submission {
    std::string prompt;
    std::size_t max_new;
};

const std::vector<Submission>& mixed_submissions() {
    static const std::vector<Submission> subs{
        {"hello", 6}, {"a much longer prompt string", 3}, {"x", 9},
        {"medium one", 5}, {"zz", 2}, {"continuation test", 7},
    };
    return subs;
}

TEST(ServeEngine, ContinuousBatchingMatchesSoloRuns) {
    // Different prompt lengths and max tokens: sessions join and retire
    // mid-stream, prompts prefill inside mixed batches — tokens must still be
    // exactly the solo-run tokens.
    ServeOptions opts;
    opts.max_batch = 3;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    std::vector<RequestHandle> futs;
    for (const Submission& s : mixed_submissions()) {
        futs.push_back(d.engine->submit(Request{
            .prompt = s.prompt, .max_new_tokens = s.max_new}));
    }
    d.engine->run_until_idle();

    for (std::size_t i = 0; i < futs.size(); ++i) {
        const ServeResult r = futs[i].get();
        const std::vector<std::int32_t> want = solo_generate(
            *d.weights, opts, mixed_submissions()[i].prompt, mixed_submissions()[i].max_new);
        EXPECT_EQ(r.tokens, want) << "request " << i;
        EXPECT_FALSE(r.tokens.empty()) << "request " << i;
    }
    EXPECT_EQ(d.engine->stats().requests_completed, futs.size());
    EXPECT_EQ(d.engine->stats().peak_batch, 3u);
    EXPECT_EQ(d.engine->active_sessions(), 0u);
    EXPECT_EQ(d.engine->queued_requests(), 0u);
}

TEST(ServeEngine, BatchSizeNeverChangesTokens) {
    // The same submissions through max_batch 1, 2, 4 and 8 give identical
    // per-request tokens on both backends: batching changes throughput, never
    // results. On the accel backend the throughput side is deterministic
    // too: each batched step streams the weights once for every lane, so the
    // simulated device rate never falls as the batch grows.
    for (const engine::BackendKind kind :
         {engine::BackendKind::kHost, engine::BackendKind::kAccel}) {
        SCOPED_TRACE(engine::to_string(kind));
        std::vector<std::vector<std::vector<std::int32_t>>> all;
        std::vector<double> sim_tok_s;
        for (const std::size_t mb : {1u, 2u, 4u, 8u}) {
            ServeOptions opts;
            opts.backend = kind;
            opts.max_batch = mb;
            runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);
            std::vector<RequestHandle> futs;
            for (const Submission& s : mixed_submissions()) {
                futs.push_back(d.engine->submit(Request{
                    .prompt = s.prompt, .max_new_tokens = s.max_new}));
            }
            d.engine->run_until_idle();
            std::vector<std::vector<std::int32_t>> tokens;
            for (auto& f : futs) tokens.push_back(f.get().tokens);
            all.push_back(std::move(tokens));
            sim_tok_s.push_back(d.engine->stats().simulated_tokens_per_s());
        }
        for (std::size_t i = 1; i < all.size(); ++i) {
            EXPECT_EQ(all[0], all[i]) << "batch index " << i;
            if (kind == engine::BackendKind::kAccel) {
                EXPECT_GE(sim_tok_s[i], sim_tok_s[i - 1]) << "batch index " << i;
            }
        }
        if (kind == engine::BackendKind::kAccel) {
            EXPECT_GT(sim_tok_s.back(), sim_tok_s.front());
        }
    }
}

TEST(ServeEngine, PrefillTilesMatchTokenByTokenSoloRuns) {
    // Prompts longer than one 16-row tile, four lanes: prompts advance in
    // tiles beside decoding lanes, yet every request's tokens are exactly a
    // solo token-by-token run's — with paging and prefix sharing off, paging
    // on, and sharing on (the un-adopted tail after a mid-page adoption then
    // rides the tiles too).
    const std::string sys = "You are a terse assistant. Answer briefly: ";
    const std::vector<Submission> subs{
        {sys + "what is a page?", 6},     {sys + "why tile prompts?", 4},
        {sys + "name a color", 7},        {sys + "count to three", 5},
        {sys + "one more question", 3},   {sys + "and the last one", 6},
    };
    struct Variant {
        bool paging;
        bool sharing;
    };
    const runtime::ServeDeployment base = runtime::synthetic_serve(test_cfg(), 42, {});
    const model::QuantizedModelWeights& qw = *base.weights;
    std::vector<std::vector<std::int32_t>> want;
    for (const Submission& sub : subs) {
        want.push_back(solo_generate(qw, {}, sub.prompt, sub.max_new));
    }
    for (const Variant v : {Variant{false, false}, Variant{true, false},
                            Variant{true, true}}) {
        ServeOptions opts;
        opts.max_batch = 4;
        opts.paging = v.paging;
        if (v.paging) opts.kv_pool_pages = 64;
        opts.prefix_sharing = v.sharing;
        ServeEngine eng(qw, opts);
        if (v.sharing) {
            // Index the system prompt's pages so later requests adopt them.
            RequestHandle warm =
                eng.submit(Request{.prompt = sys + "warm", .max_new_tokens = 1});
            eng.run_until_idle();
            (void)warm.get();
        }
        std::vector<RequestHandle> futs;
        for (const Submission& sub : subs) {
            futs.push_back(
                eng.submit(Request{.prompt = sub.prompt, .max_new_tokens = sub.max_new}));
        }
        eng.run_until_idle();
        for (std::size_t i = 0; i < futs.size(); ++i) {
            EXPECT_EQ(futs[i].get().tokens, want[i])
                << "request " << i << " paging " << v.paging << " sharing " << v.sharing;
        }
        const ServeStats& st = eng.stats();
        if (v.sharing) EXPECT_GT(st.prefix_hits, 0u);
        EXPECT_EQ(st.lane_steps, st.prompt_tokens + st.generated_tokens -
                                     st.requests_completed);
        if (v.paging) continue;

        // The same load fed one token per slot per step takes more steps.
        model::EngineOptions eo;
        eo.use_kv8 = opts.use_kv8;
        eo.max_batch = opts.max_batch;
        ServeEngine one(std::make_unique<OneTokenFeed>(qw, eo), opts);
        std::vector<RequestHandle> one_futs;
        for (const Submission& sub : subs) {
            one_futs.push_back(one.submit(
                Request{.prompt = sub.prompt, .max_new_tokens = sub.max_new}));
        }
        one.run_until_idle();
        for (std::size_t i = 0; i < futs.size(); ++i) {
            EXPECT_EQ(one_futs[i].get().tokens, futs[i].get().tokens) << "request " << i;
        }
        EXPECT_EQ(one.stats().lane_steps, st.lane_steps);
        EXPECT_LT(st.steps, one.stats().steps);
    }
}

TEST(ServeEngine, StatsExposeWeightWalkAmortization) {
    // Four identical fully-overlapped sessions: prompts advance in tiles and
    // every decode step feeds all four lanes through one walk, so walks per
    // token drops well below the single-stream 1.0.
    ServeOptions opts;
    opts.max_batch = 4;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 11, opts);
    std::vector<RequestHandle> futs;
    for (int i = 0; i < 4; ++i) {
        futs.push_back(d.engine->submit(
            Request{.prompt = "same prompt", .max_new_tokens = 8}));
    }
    d.engine->run_until_idle();
    for (auto& f : futs) (void)f.get();

    const ServeStats& st = d.engine->stats();
    EXPECT_EQ(st.requests_completed, 4u);
    EXPECT_EQ(st.peak_batch, 4u);
    EXPECT_GT(st.generated_tokens, 0u);
    EXPECT_LT(st.weight_walks_per_token(), 1.0);
    EXPECT_GT(st.mean_batch_occupancy(), 1.0);
    // Every lane-step is accounted to either prefill or a sampled token feed.
    EXPECT_EQ(st.lane_steps, st.prompt_tokens + st.generated_tokens -
                                 st.requests_completed);
}

TEST(ServeEngine, FutureCarriesTextAndMetadata) {
    ServeOptions opts;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 13, opts);
    auto fut = d.engine->submit(Request{.prompt = "abc", .max_new_tokens = 4});
    d.engine->run_until_idle();
    const ServeResult r = fut.get();
    model::ByteTokenizer tok;
    EXPECT_EQ(r.text, tok.decode(r.tokens));
    EXPECT_EQ(r.prompt_tokens, tok.encode("abc").size());
    EXPECT_GE(r.id, 1u);
}

TEST(ServeEngine, QueueFullRejectsSubmit) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.max_queue = 1;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 17, opts);
    auto f1 = d.engine->submit(Request{.prompt = "first", .max_new_tokens = 2});
    EXPECT_THROW((void)d.engine->submit(Request{
        .prompt = "second", .max_new_tokens = 2}), efld::Error);
    d.engine->run_until_idle();
    EXPECT_EQ(f1.get().tokens.size(), 2u);
}

TEST(ServeEngine, ZeroMaxTokensResolvesImmediately) {
    ServeOptions opts;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 19, opts);
    auto fut = d.engine->submit(Request{.prompt = "noop", .max_new_tokens = 0});
    const ServeResult r = fut.get();  // resolved without any stepping
    EXPECT_TRUE(r.tokens.empty());
    EXPECT_EQ(d.engine->stats().steps, 0u);
}

TEST(ServeEngine, ContextLimitRetiresSessionLikeSolo) {
    model::ModelConfig cfg = test_cfg();
    cfg.max_seq_len = 8;
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = runtime::synthetic_serve(cfg, 23, opts);
    // 5 prompt ids + headroom of 3
    auto fut = d.engine->submit(Request{.prompt = "abcd", .max_new_tokens = 100});
    d.engine->run_until_idle();
    const ServeResult r = fut.get();
    const std::vector<std::int32_t> want = solo_generate(*d.weights, opts, "abcd", 100);
    EXPECT_EQ(r.tokens, want);
    if (r.finish_reason != FinishReason::kEos) {
        EXPECT_EQ(r.finish_reason, FinishReason::kContextOverflow);
    }
    EXPECT_LE(r.tokens.size(), 4u);
}

TEST(ServeEngine, OverlongPromptRejected) {
    model::ModelConfig cfg = test_cfg();
    cfg.max_seq_len = 4;
    runtime::ServeDeployment d = runtime::synthetic_serve(cfg, 29, ServeOptions{});
    EXPECT_THROW((void)d.engine->submit(Request{
        .prompt = "way too long prompt", .max_new_tokens = 1}), efld::Error);
}

TEST(ServeEngine, LateSubmissionsJoinARunningBatch) {
    // Drive the engine manually: start one long request, then submit more
    // mid-stream and confirm they join at a token boundary and still match
    // their solo runs.
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 31, opts);
    auto f0 = d.engine->submit(Request{
        .prompt = "long running request", .max_new_tokens = 10});
    for (int i = 0; i < 3 && d.engine->step(); ++i) {}
    EXPECT_EQ(d.engine->active_sessions(), 1u);
    auto f1 = d.engine->submit(Request{.prompt = "joiner", .max_new_tokens = 4});
    d.engine->run_until_idle();
    EXPECT_EQ(f0.get().tokens, solo_generate(*d.weights, opts, "long running request", 10));
    EXPECT_EQ(f1.get().tokens, solo_generate(*d.weights, opts, "joiner", 4));
    EXPECT_EQ(d.engine->stats().peak_batch, 2u);
}

}  // namespace
}  // namespace efld::serve
