// Token samplers (the PS-side "Sample" box in Fig. 2).
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace efld::model {

struct SamplerConfig {
    float temperature = 1.0f;  // <= 0 means greedy
    std::uint32_t top_k = 0;   // 0 disables top-k
    float top_p = 1.0f;        // 1 disables nucleus sampling
    std::uint64_t seed = 0x5EED;
};

class Sampler {
public:
    explicit Sampler(SamplerConfig cfg);

    // Picks the next token id from raw logits.
    [[nodiscard]] std::int32_t sample(std::span<const float> logits);

    // Consumes exactly the random draw a stochastic sample() makes, without
    // logits (no-op when greedy): keeps a replayed stream on the RNG
    // sequence of the run that sampled it.
    void discard();

    [[nodiscard]] static std::int32_t argmax(std::span<const float> logits);

private:
    SamplerConfig cfg_;
    Xoshiro256 rng_;
};

}  // namespace efld::model
