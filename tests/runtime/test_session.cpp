// End-to-end inference session: prompt in, text + simulated rate out.
#include <gtest/gtest.h>

#include "accel/cycle_model.hpp"
#include "runtime/session.hpp"

namespace efld::runtime {
namespace {

SessionOptions greedy_opts() {
    SessionOptions o;
    o.sampler.temperature = 0.0f;
    return o;
}

TEST(Session, GeneratesTokensDeterministically) {
    auto a = InferenceSession::synthetic(model::ModelConfig::micro_256(), 3, greedy_opts());
    auto b = InferenceSession::synthetic(model::ModelConfig::micro_256(), 3, greedy_opts());
    const GenerationOutput ga = a.generate("hi", 4);
    const GenerationOutput gb = b.generate("hi", 4);
    EXPECT_EQ(ga.tokens, gb.tokens);
    EXPECT_EQ(ga.text, gb.text);
    EXPECT_FALSE(ga.tokens.empty());
}

TEST(Session, ReportsSimulatedRate) {
    auto s = InferenceSession::synthetic(model::ModelConfig::micro_256(), 4, greedy_opts());
    const GenerationOutput g = s.generate("abc", 3);
    EXPECT_GT(g.simulated_ns, 0.0);
    EXPECT_GT(g.simulated_tokens_per_s(), 0.0);
    // micro-256 is ~1000x smaller than 7B: simulated rate must be far above
    // the 7B's ~5 token/s.
    EXPECT_GT(g.simulated_tokens_per_s(), 100.0);
}

TEST(Session, SimulatedNsBillsExactlyTheDecodeSteps) {
    // Timing attribution regression: each generated token is billed the
    // decode step that consumes it. simulated_ns must equal the sum of the
    // cycle model's step latencies at positions prompt_len .. prompt_len+N-1
    // — the prefill steps are never charged (the old code billed the first
    // token the last prefill step and dropped the final decode step).
    const model::ModelConfig cfg = model::ModelConfig::micro_256();
    auto s = InferenceSession::synthetic(cfg, 4, greedy_opts());
    const std::string prompt = "abc";
    const std::size_t n = 5;
    const GenerationOutput g = s.generate(prompt, n);
    ASSERT_EQ(g.tokens.size(), n);  // run must not hit EOS for this check
    for (const std::int32_t t : g.tokens) ASSERT_NE(t, model::ByteTokenizer::kEos);

    const std::size_t prompt_len = s.tokenizer().encode(prompt).size();
    accel::DecodeCycleModel sim(cfg, model::QuantScheme::w4a16_kv8(),
                                accel::AccelConfig{});
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        want += sim.token_timing(prompt_len + i).total_ns;
    }
    EXPECT_DOUBLE_EQ(g.simulated_ns, want);
}

TEST(Session, ConsoleCollectsTranscript) {
    auto s = InferenceSession::synthetic(model::ModelConfig::micro_256(), 5, greedy_opts());
    const GenerationOutput g = s.generate("x", 4);
    EXPECT_EQ(s.console().transcript().substr(0, g.text.size()), g.text);
    EXPECT_EQ(s.console().tokens_emitted(), g.tokens.size());
}

TEST(Session, ResetAllowsFreshGeneration) {
    auto s = InferenceSession::synthetic(model::ModelConfig::micro_256(), 6, greedy_opts());
    const GenerationOutput first = s.generate("q", 3);
    s.reset();
    const GenerationOutput second = s.generate("q", 3);
    EXPECT_EQ(first.tokens, second.tokens);
}

TEST(Session, DifferentPromptsDiverge) {
    auto s = InferenceSession::synthetic(model::ModelConfig::micro_256(), 7, greedy_opts());
    const GenerationOutput a = s.generate("aaaa", 4);
    s.reset();
    const GenerationOutput b = s.generate("zzzz", 4);
    EXPECT_NE(a.tokens, b.tokens);
}

TEST(Session, RespectsContextLimit) {
    model::ModelConfig cfg = model::ModelConfig::micro_256();
    cfg.max_seq_len = 8;
    auto s = InferenceSession::synthetic(cfg, 8, greedy_opts());
    // Prompt of 5 (incl. BOS) leaves 3 steps of headroom. As in the serve
    // engine, the token sampled once the window is full is emitted but never
    // fed.
    const GenerationOutput g = s.generate("abcd", 100);
    ASSERT_NE(g.tokens.back(), model::ByteTokenizer::kEos);  // seed 8 runs to the limit
    EXPECT_EQ(g.tokens.size(), 4u);
    EXPECT_EQ(s.position(), cfg.max_seq_len);
}

}  // namespace
}  // namespace efld::runtime
