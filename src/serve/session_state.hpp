// Per-session bookkeeping for one in-flight request.
//
// A session occupies one backend slot from admission to retirement. Its
// token feed is a single logical stream: first the prefill prefix (prompt
// ids), then the tokens its own sampler picked. Each step feeds a session
// one row, or — while it is in prefill and the step has rows to spare — a
// span of its next prefix ids (a prompt tile, up to the backend's
// max_feed_tokens()); either way it rides the same batched weight walks as
// everyone else's decode, and only a span's last row yields logits. Because
// tiled logits are bit-for-bit token-by-token logits, the session is
// indistinguishable — token for token — from a solo run of the same prompt,
// which is what the continuous-batching parity tests assert.
//
// Failover resume: a request displaced by a shard failure arrives with the
// tokens the dead shard already generated and streamed (PendingRequest::
// resumed). They extend the prefill prefix — prompt first, then the resumed
// tokens — so the new slot's KV history is rebuilt exactly as the dead shard
// built it, and they seed `generated` so budget math and the final result
// are unchanged. Because sampling only begins once the WHOLE prefix has been
// fed, on_token fires only for tokens generated here: a position streamed by
// the dead shard is never delivered again. Each replayed position's sampler
// draw is discarded (model::Sampler::discard), so a stochastic continuation
// stays on the dead shard's RNG stream.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "model/sampler.hpp"
#include "serve/serve_types.hpp"

namespace efld::serve {

struct SessionState {
    SessionState(PendingRequest&& req, const model::SamplerConfig& sampler_cfg,
                 std::size_t slot_index)
        : id(req.id),
          slot(slot_index),
          prompt(std::move(req.prompt)),
          resumed_count(req.resumed.size()),
          max_new_tokens(req.max_new_tokens),
          deadline(req.deadline),
          on_token(std::move(req.on_token)),
          control(std::move(req.control)),
          times_deferred(req.times_deferred),
          failovers(req.failovers),
          submitted_ns(req.submitted_ns),
          generated(std::move(req.resumed)),
          sampler(sampler_cfg),
          promise(std::move(req.promise)) {}

    std::uint64_t id = 0;
    std::size_t slot = 0;
    std::vector<std::int32_t> prompt;
    std::size_t prefix_fed = 0;          // prefill ids (prompt + resumed) fed
    std::size_t resumed_count = 0;       // head of `generated` that is replay
    std::size_t max_new_tokens = 0;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    TokenCallback on_token;              // streaming; may be empty
    std::shared_ptr<RequestControl> control;  // cancel channel; may be null
    std::size_t times_deferred = 0;      // governor deferrals while queued
    std::size_t failovers = 0;           // shard failures that displaced it
    std::size_t committed_pages = 0;     // governor commitment, released at retire
    std::size_t adopted_tokens = 0;      // prefix tokens covered by adoption
    // Adoption ended mid-page in a still-shared page: the session's first
    // append will take a private copy. Set at admission, cleared (with a
    // cow_copy trace event) once the first post-adoption feed lands.
    bool cow_pending = false;
    // Latency anchors (obs::Clock nanoseconds). submitted_ns survives
    // failover with the request; admitted_ns/last_token_ns are per-admission
    // (a failed-over session restarts its inter-token clock on the new
    // shard, so cross-shard replay never pollutes the gap histogram).
    std::uint64_t submitted_ns = 0;
    std::uint64_t admitted_ns = 0;
    std::uint64_t last_token_ns = 0;
    std::uint64_t admit_seq = 0;         // admission order on this engine
    std::vector<std::int32_t> generated; // seeded with the resumed tokens
    model::Sampler sampler;              // fresh per request (seeded by config)
    std::promise<ServeResult> promise;
    std::int32_t pending_token = -1;     // sampled, not yet fed back

    [[nodiscard]] bool cancel_requested() const noexcept {
        return control != nullptr && control->cancel.load(std::memory_order_relaxed);
    }
    [[nodiscard]] bool deadline_passed(
        std::chrono::steady_clock::time_point now) const noexcept {
        return deadline.has_value() && now >= *deadline;
    }

    // The prefill prefix: the prompt, then (after a failover) the tokens the
    // dead shard already generated — both must be fed before sampling starts.
    [[nodiscard]] std::size_t prefix_len() const noexcept {
        return prompt.size() + resumed_count;
    }
    [[nodiscard]] std::int32_t prefix_at(std::size_t i) const noexcept {
        return i < prompt.size() ? prompt[i] : generated[i - prompt.size()];
    }
    // Prefix ids still to feed (0 once decoding).
    [[nodiscard]] std::size_t prefill_left() const noexcept {
        return prefix_len() - prefix_fed;
    }
    // Row j of this step's feed: remaining prefix first, then the token
    // sampled last step.
    [[nodiscard]] std::int32_t feed_at(std::size_t j) const noexcept {
        return prefix_fed + j < prefix_len() ? prefix_at(prefix_fed + j) : pending_token;
    }
    // Whether the last row of an n-row feed is samplable (true once the whole
    // prefix has been fed — i.e. that row was the last prefix id or a freshly
    // generated one).
    [[nodiscard]] bool sampling_after_feed(std::size_t n) const noexcept {
        return prefix_fed + n >= prefix_len();
    }
};

}  // namespace efld::serve
