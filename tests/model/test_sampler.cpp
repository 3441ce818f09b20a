// Token samplers (greedy, temperature, top-k, top-p).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "model/sampler.hpp"

namespace efld::model {
namespace {

TEST(Sampler, ArgmaxPicksLargest) {
    const std::vector<float> logits{0.1f, 5.0f, -2.0f, 4.9f};
    EXPECT_EQ(Sampler::argmax(logits), 1);
}

TEST(Sampler, GreedyViaZeroTemperature) {
    SamplerConfig cfg;
    cfg.temperature = 0.0f;
    Sampler s(cfg);
    const std::vector<float> logits{0.0f, 1.0f, 10.0f};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(s.sample(logits), 2);
}

TEST(Sampler, DeterministicPerSeed) {
    SamplerConfig cfg;
    cfg.temperature = 1.0f;
    cfg.seed = 99;
    Sampler a(cfg), b(cfg);
    const std::vector<float> logits{1.0f, 1.1f, 0.9f, 1.05f};
    for (int i = 0; i < 50; ++i) EXPECT_EQ(a.sample(logits), b.sample(logits));
}

TEST(Sampler, TopKExcludesTail) {
    SamplerConfig cfg;
    cfg.temperature = 2.0f;  // flat enough to hit the tail if allowed
    cfg.top_k = 2;
    Sampler s(cfg);
    const std::vector<float> logits{3.0f, 2.9f, -100.0f, -100.0f};
    for (int i = 0; i < 200; ++i) {
        const auto id = s.sample(logits);
        EXPECT_TRUE(id == 0 || id == 1) << id;
    }
}

TEST(Sampler, TopPExcludesTail) {
    SamplerConfig cfg;
    cfg.temperature = 1.0f;
    cfg.top_p = 0.5f;
    Sampler s(cfg);
    // Token 0 has ~88% mass; nucleus at 0.5 keeps only it.
    const std::vector<float> logits{2.0f, 0.0f, 0.0f, 0.0f};
    for (int i = 0; i < 200; ++i) EXPECT_EQ(s.sample(logits), 0);
}

TEST(Sampler, SamplesRoughlyProportionally) {
    SamplerConfig cfg;
    cfg.temperature = 1.0f;
    cfg.seed = 7;
    Sampler s(cfg);
    // exp(1)/exp(0) ~= 2.72: token 1 should win ~73% of draws.
    const std::vector<float> logits{0.0f, 1.0f};
    std::map<int, int> counts;
    const int n = 20000;
    for (int i = 0; i < n; ++i) ++counts[s.sample(logits)];
    const double p1 = static_cast<double>(counts[1]) / n;
    EXPECT_NEAR(p1, std::exp(1.0) / (1.0 + std::exp(1.0)), 0.02);
}

TEST(Sampler, LowTemperatureSharpens) {
    SamplerConfig hot, cold;
    hot.temperature = 2.0f;
    hot.seed = 1;
    cold.temperature = 0.25f;
    cold.seed = 1;
    Sampler sh(hot), sc(cold);
    const std::vector<float> logits{0.0f, 1.0f};
    int hot1 = 0, cold1 = 0;
    for (int i = 0; i < 5000; ++i) {
        if (sh.sample(logits) == 1) ++hot1;
        if (sc.sample(logits) == 1) ++cold1;
    }
    EXPECT_GT(cold1, hot1);
}

TEST(Sampler, DiscardConsumesExactlyOneStochasticDraw) {
    // discard() stands in for a sample() whose token is already known (a
    // replayed position): afterwards the stream continues exactly as if
    // sample() had run.
    SamplerConfig cfg;
    cfg.temperature = 0.8f;
    cfg.top_k = 8;
    cfg.seed = 99;
    std::vector<float> logits(32);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        logits[i] = static_cast<float>((i * 13) % 7) * 0.3f;
    }
    Sampler sampled(cfg), discarded(cfg);
    for (int i = 0; i < 3; ++i) {
        (void)sampled.sample(logits);
        discarded.discard();
    }
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(sampled.sample(logits), discarded.sample(logits)) << "draw " << i;
    }

    // Greedy draws nothing, so discard is a no-op there.
    SamplerConfig greedy;
    greedy.temperature = 0.0f;
    Sampler g(greedy);
    g.discard();
    EXPECT_EQ(g.sample(logits), Sampler::argmax(logits));
}

}  // namespace
}  // namespace efld::model
