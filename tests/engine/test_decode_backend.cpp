// The DecodeBackend seam: both implementations (host ReferenceEngine, accel
// Accelerator) must honor the same slot-lifecycle and decode contract, report
// honest StepCosts, and stay bit-identical to a token-by-token solo run. Both
// keep every slot's KV in a kvpool arena, with the default 16-token pages
// (kv_page_tokens 0, no prefix store) or explicit pages with prefix sharing;
// every parity assertion compares a batch against a solo run on default
// pages, so logits that do not depend on the page size are part of the
// contract. A step the pool refuses leaves every slot unchanged.
// engine::generate, the single-stream driver over the seam, is held to a
// hand-fed decode loop.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/packed_model.hpp"
#include "common/check.hpp"
#include "engine/backend_factory.hpp"
#include "engine/decode_backend.hpp"
#include "engine/generate.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "support/solo_stream.hpp"

namespace efld::engine {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

const model::QuantizedModelWeights& test_weights() {
    static const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 42), quant::GroupQuantConfig{});
    return qw;
}

// (backend kind, kv_page_tokens): 0 = default 16-token pages without a prefix
// store, > 0 = that page size with prefix sharing.
using ContractParam = std::tuple<BackendKind, std::size_t>;

BackendBundle make_with(BackendKind kind, std::size_t max_batch,
                        std::size_t page_tokens) {
    model::EngineOptions eo;
    eo.use_kv8 = true;
    eo.max_batch = max_batch;
    eo.kv_page_tokens = page_tokens;
    return make_backend(kind, test_weights(), eo);
}

class DecodeBackendContract : public ::testing::TestWithParam<ContractParam> {
protected:
    // The backend under test, built per the (kind, paging) parameter.
    BackendBundle make(std::size_t max_batch) {
        return make_with(std::get<0>(GetParam()), max_batch, std::get<1>(GetParam()));
    }
    // The parity oracle: always a solo backend of the same kind on default
    // pages.
    BackendBundle make_solo_default_pages() {
        return make_with(std::get<0>(GetParam()), 1, 0);
    }
    [[nodiscard]] BackendKind kind() const { return std::get<0>(GetParam()); }
};

TEST_P(DecodeBackendContract, SlotLifecycle) {
    BackendBundle b = make(2);
    DecodeBackend& be = *b.backend;
    EXPECT_EQ(be.max_batch(), 2u);

    const std::size_t s0 = be.reserve_slot();
    const std::size_t s1 = be.reserve_slot();
    EXPECT_NE(s0, s1);
    EXPECT_EQ(be.reserve_slot(), DecodeBackend::kNoSlot);  // full

    std::vector<float> logits(be.config().vocab_size);
    const std::int32_t tok = 5;
    be.decode_batch(std::span<const std::int32_t>(&tok, 1),
                    std::span<const std::size_t>(&s1, 1), logits);
    EXPECT_EQ(be.position(s1), 1u);
    EXPECT_EQ(be.position(s0), 0u);

    be.release_slot(s1);  // clears KV + position
    const std::size_t s2 = be.reserve_slot();
    EXPECT_EQ(s2, s1);
    EXPECT_EQ(be.position(s2), 0u);
    EXPECT_THROW(be.release_slot(99), efld::Error);
    EXPECT_THROW((void)be.position(be.max_batch()), efld::Error);
}

TEST_P(DecodeBackendContract, StepCostReported) {
    BackendBundle b = make(1);
    DecodeBackend& be = *b.backend;
    const std::size_t slot = be.reserve_slot();
    std::vector<float> logits(be.config().vocab_size);
    const std::int32_t tok = 9;
    be.decode_batch(std::span<const std::int32_t>(&tok, 1),
                    std::span<const std::size_t>(&slot, 1), logits);
    const StepCost c = be.last_step_cost();
    EXPECT_GT(c.wall_ns, 0.0);
    EXPECT_DOUBLE_EQ(c.weight_walks, 1.0);
    if (kind() == BackendKind::kAccel) {
        EXPECT_GT(c.simulated_ns, 0.0);  // cycle-priced
        return;
    }
    EXPECT_EQ(c.simulated_ns, 0.0);  // the host IS the wall clock
    // A 16-row prompt tile: the skinny GEMM decodes the weight codes once
    // per kGemmBatchTile (8) rows, so the step walks them twice.
    const std::vector<std::int32_t> tile(16, 9);
    const std::size_t rows = tile.size();
    be.decode_batch(tile, std::span<const std::size_t>(&slot, 1),
                    std::span<const std::size_t>(&rows, 1), logits);
    EXPECT_DOUBLE_EQ(be.last_step_cost().weight_walks, 2.0);
}

TEST_P(DecodeBackendContract, BatchNeverChangesLogits) {
    // Two slots fed the same token stream produce each lane bit-identical to
    // a fresh solo backend of the same kind on default pages — for the
    // explicit-page params this is the page-size bit-for-bit parity guarantee.
    BackendBundle batched = make(2);
    BackendBundle solo = make_solo_default_pages();
    DecodeBackend& bb = *batched.backend;
    DecodeBackend& sb = *solo.backend;
    const std::size_t b0 = bb.reserve_slot();
    const std::size_t b1 = bb.reserve_slot();
    const std::size_t s0 = sb.reserve_slot();

    const std::size_t vocab = bb.config().vocab_size;
    std::vector<float> batch_logits(2 * vocab), solo_logits(vocab);
    const std::vector<std::int32_t> stream = {3, 7, 11, 3};
    for (const std::int32_t tok : stream) {
        const std::int32_t toks[] = {tok, tok};
        const std::size_t slots[] = {b0, b1};
        bb.decode_batch(toks, slots, batch_logits);
        sb.decode_batch(std::span<const std::int32_t>(&tok, 1),
                        std::span<const std::size_t>(&s0, 1), solo_logits);
        for (std::size_t lane = 0; lane < 2; ++lane) {
            for (std::size_t i = 0; i < vocab; ++i) {
                ASSERT_EQ(batch_logits[lane * vocab + i], solo_logits[i])
                    << "lane " << lane << " logit " << i;
            }
        }
    }
}

TEST_P(DecodeBackendContract, ResetClearsStateKeepsReservations) {
    BackendBundle b = make(2);
    DecodeBackend& be = *b.backend;
    const std::size_t s0 = be.reserve_slot();
    std::vector<float> logits(be.config().vocab_size);
    const std::int32_t tok = 4;
    be.decode_batch(std::span<const std::int32_t>(&tok, 1),
                    std::span<const std::size_t>(&s0, 1), logits);
    EXPECT_EQ(be.position(s0), 1u);
    be.reset();
    EXPECT_EQ(be.position(s0), 0u);
    // Reservation survived: the other slot is still the only free one.
    const std::size_t s1 = be.reserve_slot();
    EXPECT_NE(s1, s0);
    EXPECT_EQ(be.reserve_slot(), DecodeBackend::kNoSlot);
}

TEST_P(DecodeBackendContract, AdoptedPrefixCopiesOnWriteWithSoloLogits) {
    // One prefix store and one adoption rule on both backends: slot A
    // prefills and registers a 4-page prompt, slot B adopts all but its last
    // token (mid-page), and re-feeding that token copies the shared page
    // before writing — B's logits stay bit-for-bit a fresh solo run's.
    BackendBundle b = make(2);
    DecodeBackend& be = *b.backend;
    const std::size_t pt = std::get<1>(GetParam());
    const std::size_t n = 4 * (pt > 0 ? pt : 8);
    std::vector<std::int32_t> prompt(n);
    for (std::size_t i = 0; i < n; ++i) prompt[i] = static_cast<std::int32_t>(3 + i % 50);

    const std::size_t vocab = be.config().vocab_size;
    std::vector<float> logits(vocab);
    const std::size_t a = be.reserve_slot();
    for (const std::int32_t tok : prompt) {
        be.decode_batch(std::span<const std::int32_t>(&tok, 1),
                        std::span<const std::size_t>(&a, 1), logits);
    }
    const std::size_t registered = be.register_prefix(a, prompt, 16);
    const std::size_t bslot = be.reserve_slot();
    if (pt == 0) {
        // Default pages carry no prefix store: nothing to share, and every
        // prefix call says so.
        EXPECT_EQ(registered, 0u);
        EXPECT_EQ(be.probe_prefix(prompt, n - 1), 0u);
        EXPECT_EQ(be.adopt_prefix(bslot, prompt, n - 1), 0u);
        EXPECT_EQ(be.drop_prefix_cache(), 0u);
        return;
    }
    EXPECT_EQ(registered, 4u);
    EXPECT_EQ(be.probe_prefix(prompt, n - 1), n - 1);
    ASSERT_EQ(be.adopt_prefix(bslot, prompt, n - 1), n - 1);
    EXPECT_EQ(be.position(bslot), n - 1);
    be.decode_batch(std::span<const std::int32_t>(&prompt[n - 1], 1),
                    std::span<const std::size_t>(&bslot, 1), logits);
    EXPECT_EQ(be.prefix_stats().cow_copies, 1u);

    BackendBundle solo = make_solo_default_pages();
    DecodeBackend& sb = *solo.backend;
    const std::size_t s0 = sb.reserve_slot();
    std::vector<float> solo_logits(vocab);
    for (const std::int32_t tok : prompt) {
        sb.decode_batch(std::span<const std::int32_t>(&tok, 1),
                        std::span<const std::size_t>(&s0, 1), solo_logits);
    }
    for (std::size_t i = 0; i < vocab; ++i) {
        ASSERT_EQ(logits[i], solo_logits[i]) << "logit " << i;
    }

    be.release_slot(a);
    be.release_slot(bslot);
    EXPECT_EQ(be.drop_prefix_cache(), 4u);
    EXPECT_EQ(be.prefix_stats().pages_shared, 0u);
}

// Token-by-token oracle: a solo backend of the same kind on default pages fed
// one token per step.
struct TokenByToken {
    BackendBundle bundle;
    tests::SoloStream stream;

    explicit TokenByToken(BackendBundle b) : bundle(std::move(b)), stream(*bundle.backend) {}
};

bool same_bits(std::span<const float> got, const std::vector<float>& want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
}

TEST_P(DecodeBackendContract, TileFeedMatchesTokenByToken) {
    BackendBundle b = make(4);
    DecodeBackend& be = *b.backend;
    const std::size_t vocab = be.config().vocab_size;
    if (kind() == BackendKind::kAccel) {
        // The twin feeds one token per slot per step and says so.
        EXPECT_EQ(be.max_feed_tokens(), 1u);
        const std::size_t slot = be.reserve_slot();
        const std::int32_t toks[] = {3, 4};
        const std::size_t rows[] = {2};
        std::vector<float> logits(vocab);
        EXPECT_THROW(be.decode_batch(toks, std::span<const std::size_t>(&slot, 1), rows,
                                     logits),
                     efld::Error);
        EXPECT_EQ(be.position(slot), 0u);
        return;
    }
    ASSERT_EQ(be.max_feed_tokens(), 16u);
    const std::size_t pt = std::get<1>(GetParam());

    std::vector<std::int32_t> stream(48);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i] = static_cast<std::int32_t>(3 + (i * 7) % 50);
    }
    const std::span<const std::int32_t> s(stream);
    std::vector<float> logits(4 * vocab);
    auto row = [&](std::size_t i) {
        return std::span<const float>(logits).subspan(i * vocab, vocab);
    };

    // Slot A: a 5-row span, then a 16-row span over positions 5..20 — across
    // the page boundaries at 8 and 16 on 8-token pages.
    TokenByToken oracle_a(make_solo_default_pages());
    const std::size_t a = be.reserve_slot();
    const std::size_t five = 5;
    be.decode_batch(s.first(5), std::span<const std::size_t>(&a, 1),
                    std::span<const std::size_t>(&five, 1), logits);
    EXPECT_EQ(be.position(a), 5u);
    EXPECT_TRUE(same_bits(row(0), oracle_a.stream.feed(s.first(5))));
    const std::size_t sixteen = 16;
    be.decode_batch(s.subspan(5, 16), std::span<const std::size_t>(&a, 1),
                    std::span<const std::size_t>(&sixteen, 1), logits);
    EXPECT_EQ(be.position(a), 21u);
    EXPECT_TRUE(same_bits(row(0), oracle_a.stream.feed(s.subspan(5, 16))));

    // One step mixing A's next 16-row span with two single-token lanes.
    TokenByToken oracle_b(make_solo_default_pages());
    TokenByToken oracle_c(make_solo_default_pages());
    const std::size_t bs = be.reserve_slot();
    const std::size_t cs = be.reserve_slot();
    {
        const std::size_t slots[] = {bs, cs};
        for (std::size_t i = 0; i < 3; ++i) {
            const std::int32_t toks[] = {stream[40 + i], stream[44 + i]};
            be.decode_batch(toks, slots, logits);
            oracle_b.stream.feed(s.subspan(40 + i, 1));
            oracle_c.stream.feed(s.subspan(44 + i, 1));
        }
    }
    std::vector<std::int32_t> mixed(s.begin() + 21, s.begin() + 37);
    mixed.push_back(stream[1]);
    mixed.push_back(stream[2]);
    const std::size_t slots[] = {a, bs, cs};
    const std::size_t rows[] = {16, 1, 1};
    be.decode_batch(mixed, slots, rows, logits);
    EXPECT_EQ(be.position(a), 37u);
    EXPECT_EQ(be.position(bs), 4u);
    EXPECT_EQ(be.position(cs), 4u);
    EXPECT_TRUE(same_bits(row(0), oracle_a.stream.feed(s.subspan(21, 16))));
    EXPECT_TRUE(same_bits(row(1), oracle_b.stream.feed(s.subspan(1, 1))));
    EXPECT_TRUE(same_bits(row(2), oracle_c.stream.feed(s.subspan(2, 1))));
    if (pt == 0) return;  // adoption needs a prefix store

    // A span right after a mid-page adoption: slot D maps A's registered
    // pages up to position 29 (mid-page), and its 16-row span first copies
    // the shared page, then writes — logits still token-by-token's.
    ASSERT_GT(be.register_prefix(a, s.first(37), 16), 0u);
    const std::size_t d = be.reserve_slot();
    ASSERT_EQ(be.adopt_prefix(d, s, 29), 29u);
    ASSERT_NE(29 % pt, 0u);
    be.decode_batch(s.subspan(29, 16), std::span<const std::size_t>(&d, 1),
                    std::span<const std::size_t>(&sixteen, 1), logits);
    EXPECT_EQ(be.position(d), 45u);
    EXPECT_EQ(be.prefix_stats().cow_copies, 1u);
    TokenByToken oracle_d(make_solo_default_pages());
    EXPECT_TRUE(same_bits(row(0), oracle_d.stream.feed(s.first(45))));
}

TEST_P(DecodeBackendContract, GenerateMatchesHandFedDecode) {
    // engine::generate's greedy tokens are a hand-fed token-by-token
    // decode_batch loop's on a fresh backend, and it bills exactly the decode
    // steps that loop runs (never the prompt). The 20-token prompt spans two
    // host prompt tiles (16 + 4 rows); the twin feeds it token by token.
    const std::size_t max_new = 6;
    for (const std::size_t prompt_len : {std::size_t{5}, std::size_t{20}}) {
        SCOPED_TRACE(prompt_len);
        std::vector<std::int32_t> prompt(prompt_len);
        for (std::size_t i = 0; i < prompt_len; ++i) {
            prompt[i] = static_cast<std::int32_t>(3 + (i * 11) % 50);
        }

        BackendBundle ref = make(2);
        tests::SoloStream hand(*ref.backend);
        std::vector<float> logits = hand.feed(prompt);
        std::vector<std::int32_t> want;
        double want_ns = 0.0;
        for (std::size_t i = 0; i < max_new; ++i) {
            want.push_back(model::Sampler::argmax(logits));
            logits = hand.step(want.back());
            want_ns += ref.backend->last_step_cost().simulated_ns;
        }

        BackendBundle b = make(2);
        DecodeBackend& be = *b.backend;
        model::Sampler greedy({.temperature = 0.0f});
        const std::size_t slot = be.reserve_slot();
        std::vector<double> emitted_ns;
        const Generation g = generate(be, slot, prompt, max_new, greedy, -1,
                                      [&](std::int32_t, double ns) { emitted_ns.push_back(ns); });
        EXPECT_EQ(g.tokens, want);
        EXPECT_DOUBLE_EQ(g.simulated_ns, want_ns);
        if (kind() == BackendKind::kAccel) {
            EXPECT_GT(g.simulated_ns, 0.0);
        } else {
            EXPECT_EQ(g.simulated_ns, 0.0);
        }
        ASSERT_EQ(emitted_ns.size(), max_new);
        EXPECT_DOUBLE_EQ(emitted_ns.back(), g.simulated_ns);
        EXPECT_EQ(be.position(slot), prompt_len + max_new);  // the last token is fed

        // With the greedy first token as EOS, generation stops right after
        // emitting it, and the EOS is never fed or billed.
        be.release_slot(slot);
        const std::size_t again = be.reserve_slot();
        const Generation stopped = generate(be, again, prompt, max_new, greedy, want[0]);
        EXPECT_EQ(stopped.tokens, std::vector<std::int32_t>{want[0]});
        EXPECT_EQ(stopped.simulated_ns, 0.0);
        EXPECT_EQ(be.position(again), prompt_len);
    }
}

TEST_P(DecodeBackendContract, MalformedStepsThrowAndChangeNothing) {
    // Every malformed step throws efld::Error before any slot changes: slot A
    // (2 tokens in) and a slot at a full context window keep their
    // positions, and A's next good step still gives a solo run's logits.
    BackendBundle b = make(2);
    DecodeBackend& be = *b.backend;
    const std::size_t vocab = be.config().vocab_size;
    const std::size_t ctx = be.config().max_seq_len;
    const std::vector<std::int32_t> a_stream = {5, 9, 13};
    tests::SoloStream a(be);
    tests::SoloStream full(be);
    (void)a.feed(std::span<const std::int32_t>(a_stream).first(2));
    (void)full.feed(std::vector<std::int32_t>(ctx, 7));
    ASSERT_EQ(full.position(), ctx);

    struct Step {
        const char* what;
        std::vector<std::int32_t> tokens;
        std::vector<std::size_t> slots;
        std::vector<std::size_t> rows;
        std::size_t logits_floats;
    };
    const std::size_t sa = a.slot();
    const std::size_t long_span = be.max_feed_tokens() + 1;
    const std::int32_t t = a_stream[2];
    const std::vector<Step> steps = {
        {"empty batch", {}, {}, {}, 2 * vocab},
        {"duplicate slot", {t, t}, {sa, sa}, {}, 2 * vocab},
        {"slot >= max_batch", {t, t}, {sa, be.max_batch()}, {}, 2 * vocab},
        {"rows of the wrong size", {t}, {sa}, {1, 1}, 2 * vocab},
        {"rows not summing to the token count", {t, t}, {sa}, {1}, 2 * vocab},
        {"span of max_feed_tokens() + 1", std::vector<std::int32_t>(long_span, t), {sa},
         {long_span}, 2 * vocab},
        {"token equal to the vocab size", {static_cast<std::int32_t>(vocab)}, {sa}, {},
         2 * vocab},
        {"negative token", {-1}, {sa}, {}, 2 * vocab},
        {"logits_out one float short", {t}, {sa}, {}, vocab - 1},
        {"slot at a full context window", {t, t}, {sa, full.slot()}, {}, 2 * vocab},
    };
    for (const Step& s : steps) {
        SCOPED_TRACE(s.what);
        std::vector<float> logits(s.logits_floats);
        EXPECT_THROW(be.decode_batch(s.tokens, s.slots, s.rows, logits), efld::Error);
        EXPECT_EQ(a.position(), 2u);
        EXPECT_EQ(full.position(), ctx);
    }

    BackendBundle solo = make_solo_default_pages();
    EXPECT_TRUE(same_bits(a.step(t), tests::SoloStream(*solo.backend).feed(a_stream)));
    EXPECT_EQ(a.position(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackendsBothPageRules, DecodeBackendContract,
    ::testing::Values(ContractParam{BackendKind::kHost, 0},
                      ContractParam{BackendKind::kHost, 8},
                      ContractParam{BackendKind::kAccel, 0},
                      ContractParam{BackendKind::kAccel, 8}),
    [](const ::testing::TestParamInfo<ContractParam>& info) {
        const std::size_t pt = std::get<1>(info.param);
        return std::string(to_string(std::get<0>(info.param))) +
               (pt > 0 ? "_paged" + std::to_string(pt) : "_default_pages");
    });

TEST(DecodeBackendPaged, HostFloatCachePagedParity) {
    // The float (non-KV8) host path pages through a different arena (gathered
    // spans instead of dequant) — its logits on 4-token pages must also be
    // bit-for-bit the float path's on default pages.
    model::EngineOptions paged_eo;
    paged_eo.use_kv8 = false;
    paged_eo.max_batch = 2;
    paged_eo.kv_page_tokens = 4;
    model::EngineOptions default_eo;
    default_eo.use_kv8 = false;
    model::ReferenceEngine paged(test_weights(), paged_eo);
    model::ReferenceEngine default_pages(test_weights(), default_eo);

    const std::size_t vocab = test_cfg().vocab_size;
    std::vector<float> got(2 * vocab), want(vocab);
    const std::size_t p0 = paged.reserve_slot();
    const std::size_t p1 = paged.reserve_slot();
    const std::size_t c0 = default_pages.reserve_slot();
    for (const std::int32_t tok : {2, 6, 10, 14, 3, 1, 12, 9, 5}) {
        const std::int32_t toks[] = {tok, tok};
        const std::size_t slots[] = {p0, p1};
        paged.decode_batch(toks, slots, got);
        default_pages.decode_batch(std::span<const std::int32_t>(&tok, 1),
                            std::span<const std::size_t>(&c0, 1), want);
        for (std::size_t lane = 0; lane < 2; ++lane) {
            for (std::size_t i = 0; i < vocab; ++i) {
                ASSERT_EQ(got[lane * vocab + i], want[i]) << "lane " << lane;
            }
        }
    }
}

TEST(DecodeBackendPaged, HostPoolSmallerThanWorstCaseStillServesShortSessions) {
    // The capacity point at the engine level: 2 slots backed by a pool far
    // smaller than 2 x max_seq_len decode short sessions fine, and
    // release_slot returns pages for the next tenant.
    model::EngineOptions eo;
    eo.use_kv8 = true;
    eo.max_batch = 2;
    eo.kv_page_tokens = 4;
    eo.kv_pool_pages = 4;  // 16 tokens total << 2 * 1024
    model::ReferenceEngine eng(test_weights(), eo);

    const std::size_t vocab = test_cfg().vocab_size;
    std::vector<float> logits(2 * vocab);
    for (int round = 0; round < 3; ++round) {
        const std::size_t s0 = eng.reserve_slot();
        const std::size_t s1 = eng.reserve_slot();
        const std::size_t slots[] = {s0, s1};
        for (std::int32_t t = 0; t < 8; ++t) {  // 8 tokens each: exactly fits
            const std::int32_t toks[] = {t, t + 1};
            eng.decode_batch(toks, slots, logits);
        }
        eng.release_slot(s0);
        eng.release_slot(s1);
    }
    // A session that outgrows the pool surfaces as an error, not corruption.
    const std::size_t s = eng.reserve_slot();
    std::vector<float> row(vocab);
    for (std::int32_t t = 0; t < 16; ++t) {
        eng.decode_batch(std::span<const std::int32_t>(&t, 1),
                         std::span<const std::size_t>(&s, 1), row);
    }
    const std::int32_t overflow = 0;
    EXPECT_THROW(eng.decode_batch(std::span<const std::int32_t>(&overflow, 1),
                                  std::span<const std::size_t>(&s, 1), row),
                 efld::Error);
}

TEST(DecodeBackendPaged, RefusedStepLeavesEverySlotUnchanged) {
    // 4-token pages in a 3-page pool: slot B holds 8 tokens (two pages) and
    // slot A 3 (one page), so the pool is full. The step {A, B} needs a fresh
    // page for B's 9th token and is refused before A, listed first, appends
    // anything. A's 4th token, which still fits its page, then gives a solo
    // run's logits, and so does B's 9th once A's release frees a page.
    struct Case {
        BackendKind kind;
        bool kv8;
        const char* name;
    };
    const std::vector<std::int32_t> a_stream = {5, 9, 13, 17};
    const std::vector<std::int32_t> b_stream = {4, 8, 12, 16, 20, 24, 28, 32, 36};
    for (const Case& c : {Case{BackendKind::kHost, false, "host float"},
                          Case{BackendKind::kHost, true, "host KV8"},
                          Case{BackendKind::kAccel, true, "accel"}}) {
        SCOPED_TRACE(c.name);
        model::EngineOptions eo;
        eo.use_kv8 = c.kv8;
        eo.max_batch = 2;
        eo.kv_page_tokens = 4;
        eo.kv_pool_pages = 3;
        BackendBundle b = make_backend(c.kind, test_weights(), eo);
        DecodeBackend& be = *b.backend;
        tests::SoloStream a(be);
        tests::SoloStream bs(be);
        (void)bs.feed(std::span<const std::int32_t>(b_stream).first(8));
        (void)a.feed(std::span<const std::int32_t>(a_stream).first(3));

        const std::int32_t toks[] = {a_stream[3], b_stream[8]};
        const std::size_t slots[] = {a.slot(), bs.slot()};
        std::vector<float> logits(2 * be.config().vocab_size);
        EXPECT_THROW(be.decode_batch(toks, slots, logits), efld::Error);
        EXPECT_EQ(a.position(), 3u);
        EXPECT_EQ(bs.position(), 8u);

        const model::EngineOptions solo_eo{.use_kv8 = c.kv8};
        BackendBundle solo_a = make_backend(c.kind, test_weights(), solo_eo);
        EXPECT_TRUE(same_bits(a.step(a_stream[3]),
                              tests::SoloStream(*solo_a.backend).feed(a_stream)));
        be.release_slot(a.slot());
        BackendBundle solo_b = make_backend(c.kind, test_weights(), solo_eo);
        EXPECT_TRUE(same_bits(bs.step(b_stream[8]),
                              tests::SoloStream(*solo_b.backend).feed(b_stream)));
    }
}

TEST(DecodeBackendPaged, DefaultPagesAreSixteenTokensOnBothBackends) {
    // kv_page_tokens 0 means the same on both backends: 16-token pages
    // (kvpool::pool_config), a pool of kv_pool_pages of them, and no prefix
    // store. One page holds 16 tokens; the 17th is refused with the slot
    // unchanged, and its release returns the page.
    std::vector<std::int32_t> stream(16);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i] = static_cast<std::int32_t>(3 + i * 5);
    }
    for (const BackendKind kind : {BackendKind::kHost, BackendKind::kAccel}) {
        SCOPED_TRACE(std::string(to_string(kind)));
        const model::EngineOptions eo{.use_kv8 = true, .kv_page_tokens = 0,
                                      .kv_pool_pages = 1};
        BackendBundle b = make_backend(kind, test_weights(), eo);
        DecodeBackend& be = *b.backend;
        tests::SoloStream s(be);
        (void)s.feed(stream);
        ASSERT_EQ(s.position(), 16u);
        EXPECT_THROW((void)s.step(stream[0]), efld::Error);
        EXPECT_EQ(s.position(), 16u);
        EXPECT_EQ(be.register_prefix(s.slot(), stream, 1), 0u);

        be.release_slot(s.slot());
        tests::SoloStream again(be);
        (void)again.feed(stream);
        EXPECT_EQ(again.position(), 16u);
    }
}

TEST(DecodeBackendFactory, KindRoundTrips) {
    EXPECT_EQ(backend_kind_from_string("host"), BackendKind::kHost);
    EXPECT_EQ(backend_kind_from_string("accel"), BackendKind::kAccel);
    EXPECT_EQ(to_string(BackendKind::kAccel), "accel");
    EXPECT_THROW((void)backend_kind_from_string("gpu"), std::invalid_argument);
}

TEST(DecodeBackendFactory, AccelOneLaneStepPricedAsTokenTiming) {
    // A 1-lane decode_batch is priced as the cycle model's single-token step
    // at the slot's context: batch_timing over one lane is token_timing.
    BackendBundle b = make_with(BackendKind::kAccel, 1, 0);
    auto& acc = dynamic_cast<accel::Accelerator&>(*b.backend);
    tests::SoloStream s(acc);
    for (const std::int32_t tok : {2, 5, 17}) {
        const std::size_t ctx = s.position();
        (void)s.step(tok);
        EXPECT_DOUBLE_EQ(acc.last_step_cost().simulated_ns,
                         acc.cycle_model().token_timing(ctx).total_ns);
    }
}

TEST(DecodeBackendFactory, AccelSlotsAreIndependentSessions) {
    // Two accel slots fed different streams keep independent KV: slot A's
    // logits match a solo accelerator fed only A's stream.
    BackendBundle b = make_with(BackendKind::kAccel, 2, 0);
    accel::Accelerator solo(*b.packed);
    tests::SoloStream solo_a(solo);

    auto& be = *b.backend;
    const std::size_t sa = be.reserve_slot();
    const std::size_t sb = be.reserve_slot();
    const std::size_t vocab = be.config().vocab_size;
    std::vector<float> logits(2 * vocab);

    for (const std::int32_t tok : {3, 9, 27}) {
        const std::int32_t toks[] = {tok, static_cast<std::int32_t>(tok + 1)};
        const std::size_t slots[] = {sa, sb};
        be.decode_batch(toks, slots, logits);
        const std::vector<float>& want = solo_a.step(tok);
        for (std::size_t i = 0; i < vocab; ++i) ASSERT_EQ(logits[i], want[i]);
    }
}

}  // namespace
}  // namespace efld::engine
