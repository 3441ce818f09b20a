#include "engine/generate.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::engine {

void prefill(DecodeBackend& backend, std::size_t slot, std::span<const std::int32_t> prompt,
             std::span<float> logits) {
    check(!prompt.empty(), "prefill: empty prompt");
    const std::size_t tile = backend.max_feed_tokens();
    for (std::size_t i = 0; i < prompt.size(); i += tile) {
        const std::size_t n = std::min(tile, prompt.size() - i);
        backend.decode_batch(prompt.subspan(i, n), std::span<const std::size_t>(&slot, 1),
                             std::span<const std::size_t>(&n, 1), logits);
    }
}

Generation generate(DecodeBackend& backend, std::size_t slot,
                    std::span<const std::int32_t> prompt, std::size_t max_new,
                    model::Sampler& sampler, std::int32_t eos,
                    const std::function<void(std::int32_t, double)>& on_token) {
    std::vector<float> logits(backend.config().vocab_size);
    prefill(backend, slot, prompt, logits);

    // A token is billed the decode step that consumes it, not the step that
    // produced its logits: the first token's logits fall out of the last
    // prompt step, which is time to first token, not decode time.
    Generation g;
    while (g.tokens.size() < max_new) {
        const std::int32_t next = sampler.sample(logits);
        g.tokens.push_back(next);
        const bool feed =
            next != eos && backend.position(slot) < backend.config().max_seq_len;
        if (feed) {
            backend.decode_batch(std::span<const std::int32_t>(&next, 1),
                                 std::span<const std::size_t>(&slot, 1), logits);
            g.simulated_ns += backend.last_step_cost().simulated_ns;
        }
        if (on_token) on_token(next, g.simulated_ns);
        if (!feed) break;
    }
    return g;
}

}  // namespace efld::engine
