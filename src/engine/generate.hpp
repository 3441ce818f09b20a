// Single-stream generation over the DecodeBackend seam: the loop the paper's
// bare-metal host runs (§VII.A) — feed the prompt, then sample a token and
// feed it back until the budget, an EOS or the context window ends the
// request. runtime::InferenceSession drives the twin through it, and tests
// use it as the solo run the serving layer must match token for token.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "engine/decode_backend.hpp"
#include "model/sampler.hpp"

namespace efld::engine {

struct Generation {
    std::vector<std::int32_t> tokens;
    // Simulated time of the decode steps (0 on backends without a cycle
    // model); the prompt walk is never charged.
    double simulated_ns = 0.0;
};

// Feeds `prompt` (non-empty) through the reserved `slot` in spans of
// max_feed_tokens() tokens, one decode_batch per span, and leaves the last
// token's logits in `logits` (at least vocab floats).
void prefill(DecodeBackend& backend, std::size_t slot, std::span<const std::int32_t> prompt,
             std::span<float> logits);

// Prefills `prompt` into the reserved `slot`, then samples up to `max_new`
// tokens. Each token is billed the decode step that feeds it back. An `eos`
// token (-1: none), or one sampled once the slot's context window is full,
// is emitted but never fed, and ends the run. `on_token(id, simulated_ns so
// far)` runs after each token is emitted.
Generation generate(DecodeBackend& backend, std::size_t slot,
                    std::span<const std::int32_t> prompt, std::size_t max_new,
                    model::Sampler& sampler, std::int32_t eos = -1,
                    const std::function<void(std::int32_t, double)>& on_token = {});

}  // namespace efld::engine
