#include "model/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace efld::model {

Sampler::Sampler(SamplerConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

std::int32_t Sampler::argmax(std::span<const float> logits) {
    check(!logits.empty(), "Sampler: empty logits");
    std::size_t best = 0;
    for (std::size_t i = 1; i < logits.size(); ++i) {
        if (logits[i] > logits[best]) best = i;
    }
    return static_cast<std::int32_t>(best);
}

void Sampler::discard() {
    if (cfg_.temperature > 0.0f) (void)rng_.uniform();
}

std::int32_t Sampler::sample(std::span<const float> logits) {
    check(!logits.empty(), "Sampler: empty logits");
    if (cfg_.temperature <= 0.0f) return argmax(logits);

    // Candidate list sorted by logit, truncated by top-k.
    std::vector<std::size_t> idx(logits.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return logits[a] > logits[b]; });
    std::size_t n = logits.size();
    if (cfg_.top_k > 0) n = std::min<std::size_t>(n, cfg_.top_k);

    // Softmax with temperature over the candidates.
    std::vector<double> probs(n);
    const double max_logit = static_cast<double>(logits[idx[0]]);
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        probs[i] = std::exp((static_cast<double>(logits[idx[i]]) - max_logit) /
                            static_cast<double>(cfg_.temperature));
        denom += probs[i];
    }
    for (double& p : probs) p /= denom;

    // Nucleus truncation.
    if (cfg_.top_p < 1.0f) {
        double cum = 0.0;
        std::size_t cut = n;
        for (std::size_t i = 0; i < n; ++i) {
            cum += probs[i];
            if (cum >= static_cast<double>(cfg_.top_p)) {
                cut = i + 1;
                break;
            }
        }
        n = cut;
        double renorm = 0.0;
        for (std::size_t i = 0; i < n; ++i) renorm += probs[i];
        for (std::size_t i = 0; i < n; ++i) probs[i] /= renorm;
    }

    // Inverse-CDF draw.
    const double u = rng_.uniform();
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cum += probs[i];
        if (u <= cum) return static_cast<std::int32_t>(idx[i]);
    }
    return static_cast<std::int32_t>(idx[n - 1]);
}

}  // namespace efld::model
