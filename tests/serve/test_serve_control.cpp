// Control plane of the redesigned serve API: streaming callbacks, cooperative
// cancellation, deadline retirement, scheduler policies, option validation,
// and serving on the accel (cycle-priced) backend.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/generate.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "obs/clock.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

using std::chrono::steady_clock;

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

runtime::ServeDeployment deploy(ServeOptions opts, std::uint64_t seed = 42) {
    opts.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_serve(test_cfg(), seed, opts);
}

TEST(ServeControl, StreamingCallbackSeesEveryTokenInOrder) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = deploy(opts);

    std::vector<std::int32_t> streamed;
    std::string streamed_text;
    Request req;
    req.prompt = "stream me";
    req.max_new_tokens = 8;
    req.on_token = [&](std::int32_t tok, std::string_view piece) {
        streamed.push_back(tok);
        streamed_text.append(piece);
    };
    RequestHandle h = d.engine->submit(std::move(req));
    d.engine->run_until_idle();

    const ServeResult& r = h.get();
    EXPECT_EQ(streamed, r.tokens);  // every sampled token, in order, incl. EOS
    model::ByteTokenizer tok;
    std::string want_text;
    for (const std::int32_t t : r.tokens) want_text.append(tok.decode_token(t));
    EXPECT_EQ(streamed_text, want_text);
}

TEST(ServeControl, HandleLifecycle) {
    ServeOptions opts;
    runtime::ServeDeployment d = deploy(opts);
    RequestHandle h = d.engine->submit(Request{.prompt = "abc", .max_new_tokens = 3});
    EXPECT_TRUE(h.valid());
    EXPECT_GE(h.id(), 1u);
    EXPECT_FALSE(h.done());
    d.engine->run_until_idle();
    EXPECT_TRUE(h.done());
    EXPECT_EQ(h.get().tokens.size(), 3u);
    EXPECT_FALSE(RequestHandle{}.valid());  // default handle is inert
}

TEST(ServeControl, CancelActiveSessionDeliversPartialOutput) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = deploy(opts);

    RequestHandle victim =
        d.engine->submit(Request{.prompt = "long running", .max_new_tokens = 200});
    RequestHandle survivor =
        d.engine->submit(Request{.prompt = "short one", .max_new_tokens = 4});

    for (int i = 0; i < 3; ++i) ASSERT_TRUE(d.engine->step());
    victim.cancel();
    d.engine->run_until_idle();

    const ServeResult& rv = victim.get();
    EXPECT_EQ(rv.finish_reason, FinishReason::kCancelled);
    EXPECT_NE(rv.finish_reason, FinishReason::kEos);
    EXPECT_LT(rv.tokens.size(), 200u);  // retired early
    const ServeResult& rs = survivor.get();
    // The batch-mate was untouched.
    EXPECT_NE(rs.finish_reason, FinishReason::kCancelled);

    EXPECT_EQ(d.engine->stats().requests_cancelled, 1u);
    EXPECT_EQ(d.engine->active_sessions(), 0u);
    // The cancelled slot is reusable.
    RequestHandle again = d.engine->submit(Request{.prompt = "next", .max_new_tokens = 2});
    d.engine->run_until_idle();
    EXPECT_EQ(again.get().tokens.size(), 2u);
}

TEST(ServeControl, CancelQueuedRequestIsShedWithoutASlot) {
    ServeOptions opts;
    opts.max_batch = 1;
    runtime::ServeDeployment d = deploy(opts);
    RequestHandle running =
        d.engine->submit(Request{.prompt = "occupies the slot", .max_new_tokens = 6});
    RequestHandle queued =
        d.engine->submit(Request{.prompt = "never admitted", .max_new_tokens = 6});
    queued.cancel();
    d.engine->run_until_idle();

    const ServeResult& rq = queued.get();
    EXPECT_EQ(rq.finish_reason, FinishReason::kCancelled);
    EXPECT_TRUE(rq.tokens.empty());  // never decoded a token
    EXPECT_GT(rq.prompt_tokens, 0u);
    EXPECT_NE(running.get().finish_reason, FinishReason::kCancelled);
    EXPECT_EQ(d.engine->stats().requests_cancelled, 1u);
}

TEST(ServeControl, ExpiredQueuedDeadlineIsShed) {
    ServeOptions opts;
    opts.max_batch = 1;
    runtime::ServeDeployment d = deploy(opts);
    RequestHandle running =
        d.engine->submit(Request{.prompt = "occupies the slot", .max_new_tokens = 4});
    RequestHandle expired = d.engine->submit(Request{.prompt = "too late",
                                                     .max_new_tokens = 4,
                                                     .deadline = steady_clock::now()});
    d.engine->run_until_idle();

    const ServeResult& re = expired.get();
    EXPECT_EQ(re.finish_reason, FinishReason::kDeadline);
    EXPECT_TRUE(re.tokens.empty());
    EXPECT_NE(running.get().finish_reason, FinishReason::kDeadline);
    EXPECT_EQ(d.engine->stats().requests_expired, 1u);
}

TEST(ServeControl, ActiveSessionRetiresAtDeadline) {
    // The deadline is an instant on the engine's clock. Stepped on a
    // ManualClock one millisecond per step, the session samples a token at
    // t+0..3 ms and the step at t+4 ms cuts it, partial output kept.
    auto clock = std::make_shared<obs::ManualClock>(1'000'000'000);
    ServeOptions opts;
    opts.clock = clock;
    runtime::ServeDeployment d = deploy(opts);
    RequestHandle h = d.engine->submit(
        Request{.prompt = "deadline bound",
                .max_new_tokens = 32,
                .deadline = obs::time_point(*clock) + std::chrono::milliseconds(4)});
    while (d.engine->step()) clock->advance_ns(1'000'000);
    const ServeResult& r = h.get();
    EXPECT_EQ(r.finish_reason, FinishReason::kDeadline);
    EXPECT_EQ(r.tokens.size(), 4u);
    EXPECT_EQ(d.engine->stats().requests_expired, 1u);
}

TEST(ServeControl, SjfAdmitsShortestQueuedJobFirst) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.scheduler = SchedulerPolicy::kSjf;
    runtime::ServeDeployment d = deploy(opts);

    std::vector<char> admission_order;
    auto tracker = [&admission_order](char label) {
        return [&admission_order, label,
                seen = false](std::int32_t, std::string_view) mutable {
            if (!seen) admission_order.push_back(label);
            seen = true;
        };
    };
    // All three are queued before the first step, so SJF admits the short C
    // first; A and B tie on work and keep FIFO order between them.
    RequestHandle a = d.engine->submit(
        Request{.prompt = "aaaa", .max_new_tokens = 6, .on_token = tracker('a')});
    RequestHandle b = d.engine->submit(
        Request{.prompt = "bbbb", .max_new_tokens = 6, .on_token = tracker('b')});
    RequestHandle c = d.engine->submit(
        Request{.prompt = "cccc", .max_new_tokens = 2, .on_token = tracker('c')});
    d.engine->run_until_idle();
    (void)a.get();
    (void)b.get();
    (void)c.get();
    ASSERT_EQ(admission_order.size(), 3u);
    EXPECT_EQ(admission_order[0], 'c');
    EXPECT_EQ(admission_order[1], 'a');
    EXPECT_EQ(admission_order[2], 'b');
}

TEST(ServeControl, FcfsKeepsSubmissionOrder) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.scheduler = SchedulerPolicy::kFcfs;
    runtime::ServeDeployment d = deploy(opts);
    std::vector<char> order;
    auto first_token = [&order](char label) {
        return [&order, label, seen = false](std::int32_t, std::string_view) mutable {
            if (!seen) order.push_back(label);
            seen = true;
        };
    };
    RequestHandle a = d.engine->submit(
        Request{.prompt = "aaaa", .max_new_tokens = 6, .on_token = first_token('a')});
    RequestHandle b = d.engine->submit(
        Request{.prompt = "bbbb", .max_new_tokens = 6, .on_token = first_token('b')});
    RequestHandle c = d.engine->submit(
        Request{.prompt = "cccc", .max_new_tokens = 2, .on_token = first_token('c')});
    d.engine->run_until_idle();
    (void)a.get();
    (void)b.get();
    (void)c.get();
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(ServeControl, SjfCannotStarveADeadQueuedRequest) {
    // Regression: queued cancel/deadline must be observed by sweeping the
    // whole queue each step, not only when the scheduler happens to pick the
    // request — SJF would pass over a long job forever under short-job load.
    ServeOptions opts;
    opts.max_batch = 1;
    opts.scheduler = SchedulerPolicy::kSjf;
    runtime::ServeDeployment d = deploy(opts);

    RequestHandle active =
        d.engine->submit(Request{.prompt = "busy busy busy", .max_new_tokens = 30});
    RequestHandle starved = d.engine->submit(
        Request{.prompt = "very long job the scheduler always passes over",
                .max_new_tokens = 500});
    ASSERT_TRUE(d.engine->step());  // `active` owns the only slot
    starved.cancel();
    ASSERT_TRUE(d.engine->step());  // swept from the queue this boundary
    EXPECT_TRUE(starved.done());
    EXPECT_EQ(starved.get().finish_reason, FinishReason::kCancelled);
    d.engine->run_until_idle();
    EXPECT_NE(active.get().finish_reason, FinishReason::kCancelled);
}

TEST(ServeControl, ThrowingOnTokenDoesNotCorruptTheBatch) {
    // A throwing callback surfaces from step() only after the token boundary
    // completes; the batch-mate's stream stays bit-for-bit its solo run.
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment baseline = deploy(opts);
    RequestHandle want = baseline.engine->submit(
        Request{.prompt = "undisturbed", .max_new_tokens = 6});
    baseline.engine->run_until_idle();

    runtime::ServeDeployment d = deploy(opts);
    int thrown = 0;
    RequestHandle thrower = d.engine->submit(Request{
        .prompt = "misbehaving client",
        .max_new_tokens = 6,
        .on_token = [&thrown](std::int32_t, std::string_view) {
            ++thrown;
            throw std::runtime_error("client bug");
        }});
    RequestHandle mate =
        d.engine->submit(Request{.prompt = "undisturbed", .max_new_tokens = 6});

    std::size_t rethrows = 0;
    for (int i = 0; i < 200; ++i) {
        try {
            if (!d.engine->step()) break;
        } catch (const std::runtime_error&) {
            ++rethrows;
        }
    }
    EXPECT_GT(thrown, 0);
    EXPECT_EQ(static_cast<std::size_t>(thrown), rethrows);
    EXPECT_FALSE(thrower.get().tokens.empty());  // request still completed
    EXPECT_EQ(mate.get().tokens, want.get().tokens);
}

TEST(ServeControl, InertHandleGetThrowsInsteadOfUb) {
    RequestHandle inert;
    EXPECT_FALSE(inert.valid());
    EXPECT_FALSE(inert.done());
    EXPECT_THROW((void)inert.get(), std::future_error);
}

TEST(ServeControl, ByoBackendWithReservedSlotsRejected) {
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 1), quant::GroupQuantConfig{});
    auto backend = std::make_unique<model::ReferenceEngine>(
        qw, model::EngineOptions{.use_kv8 = true, .max_batch = 2});
    (void)backend->reserve_slot();  // someone else owns a session
    ServeOptions opts;
    opts.max_batch = 2;
    EXPECT_THROW(ServeEngine(std::move(backend), opts), std::invalid_argument);
}

TEST(ServeControl, ByoBackendWithFreeSlotsServes) {
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 1), quant::GroupQuantConfig{});
    auto backend = std::make_unique<model::ReferenceEngine>(
        qw, model::EngineOptions{.use_kv8 = true, .max_batch = 2});
    ServeOptions opts;
    opts.sampler.temperature = 0.0f;
    ServeEngine eng(std::move(backend), opts);
    RequestHandle h = eng.submit(Request{.prompt = "byo", .max_new_tokens = 3});
    eng.run_until_idle();
    EXPECT_EQ(h.get().tokens.size(), 3u);
}

// ---- option validation (std::invalid_argument, not silent misbehavior) ----

TEST(ServeControl, InvalidServeOptionsRejected) {
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 1), quant::GroupQuantConfig{});
    {
        ServeOptions o;
        o.max_batch = 0;
        EXPECT_THROW(ServeEngine(qw, o), std::invalid_argument);
    }
    {
        ServeOptions o;
        o.max_queue = 0;
        EXPECT_THROW(ServeEngine(qw, o), std::invalid_argument);
    }
    {
        ServeOptions o;
        o.threads = 1u << 20;  // garbage value, not a plausible pool
        EXPECT_THROW(ServeEngine(qw, o), std::invalid_argument);
    }
    for (const unsigned bits : {0u, 1u, 9u, 16u}) {
        ServeOptions o;  // use_kv8 by default: one stored byte per code
        o.kv_bits = bits;
        EXPECT_THROW(ServeEngine(qw, o), std::invalid_argument) << bits;
    }
}

TEST(ServeControl, InvalidEngineOptionsRejected) {
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(test_cfg(), 1), quant::GroupQuantConfig{});
    EXPECT_THROW(model::ReferenceEngine(qw, model::EngineOptions{.max_batch = 0}),
                 std::invalid_argument);
    EXPECT_THROW(
        model::ReferenceEngine(qw, model::EngineOptions{.threads = 1u << 20}),
        std::invalid_argument);
    for (const unsigned bits : {0u, 1u, 9u, 16u}) {
        EXPECT_THROW(model::ReferenceEngine(
                         qw, model::EngineOptions{.use_kv8 = true, .kv_bits = bits}),
                     std::invalid_argument)
            << bits;
    }
}

// ---- the accel backend behind the same serve loop ----

TEST(ServeControl, AccelBackendServesAndReportsSimulatedTime) {
    ServeOptions opts;
    opts.backend = engine::BackendKind::kAccel;
    opts.max_batch = 2;
    runtime::ServeDeployment d = deploy(opts, 7);

    RequestHandle h0 = d.engine->submit(Request{.prompt = "ab", .max_new_tokens = 6});
    RequestHandle h1 = d.engine->submit(Request{.prompt = "ab", .max_new_tokens = 6});
    d.engine->run_until_idle();

    const ServeResult& r0 = h0.get();
    const ServeResult& r1 = h1.get();
    EXPECT_FALSE(r0.tokens.empty());
    EXPECT_EQ(r0.tokens, r1.tokens);  // identical greedy requests

    const ServeStats& st = d.engine->stats();
    EXPECT_GT(st.simulated_ns, 0.0);
    EXPECT_GT(st.simulated_tokens_per_s(), 0.0);
    EXPECT_GT(st.wall_ns, 0.0);
    EXPECT_EQ(st.peak_batch, 2u);
    if (r0.finish_reason != FinishReason::kEos) {
        // Two fully-overlapped sessions: fewer walks than generated tokens.
        EXPECT_LT(st.weight_walks_per_token(), 1.0);
    }
}

TEST(ServeControl, AccelServeMatchesSoloAccelGenerate) {
    // Serving on the accel backend never changes a request's tokens: the
    // batched serve run must equal engine::generate of the same prompt
    // (greedy) on a dedicated Accelerator, token for token.
    ServeOptions opts;
    opts.backend = engine::BackendKind::kAccel;
    opts.max_batch = 2;
    opts.sampler.temperature = 0.0f;
    runtime::ServeDeployment d = deploy(opts, 11);

    const std::string prompt = "parity";
    const std::size_t max_new = 5;
    RequestHandle h = d.engine->submit(Request{.prompt = prompt, .max_new_tokens = max_new});
    RequestHandle other =
        d.engine->submit(Request{.prompt = "different stream", .max_new_tokens = 3});
    d.engine->run_until_idle();

    // Solo ground truth on a fresh accelerator over the same packed image.
    accel::PackedModel packed = accel::PackedModel::build(*d.weights);
    accel::Accelerator solo(packed);
    model::Sampler sampler(opts.sampler);
    model::ByteTokenizer tok;
    const std::vector<std::int32_t> ids = tok.encode(prompt);
    const engine::Generation want = engine::generate(solo, solo.reserve_slot(), ids, max_new,
                                                     sampler, model::ByteTokenizer::kEos);

    EXPECT_EQ(h.get().tokens, want.tokens);
    (void)other.get();
}

}  // namespace
}  // namespace efld::serve
