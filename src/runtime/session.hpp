// End-to-end inference session: tokenizer -> accelerator -> sampler -> UART.
//
// This is the public "application" API a downstream user programs against —
// the software equivalent of the whole Fig. 1 system. It owns a packed model
// (built from synthetic weights or loaded from an image), the accelerator
// simulator, and a sampler, and reports both generated text and the
// simulated KV260 decode rate.
//
// Generation runs engine::generate over the accelerator's DecodeBackend seam
// (one slot reserved for the session's life, StepCost for timing) — the same
// interface the serving layer batches over — so the single-stream and
// serving paths exercise one engine contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "runtime/serial_console.hpp"

namespace efld::runtime {

struct SessionOptions {
    model::SamplerConfig sampler{};
    accel::AcceleratorOptions accel{};
    bool echo_to_stdout = false;
};

struct GenerationOutput {
    std::string text;
    std::vector<std::int32_t> tokens;
    double simulated_ns = 0.0;

    [[nodiscard]] double simulated_tokens_per_s() const noexcept {
        return simulated_ns > 0.0
                   ? static_cast<double>(tokens.size()) * 1e9 / simulated_ns
                   : 0.0;
    }
};

class InferenceSession {
public:
    // Takes ownership of the packed model.
    InferenceSession(accel::PackedModel model, SessionOptions opts = {});

    // Builds a session around synthetic weights for a config (test/demo path).
    [[nodiscard]] static InferenceSession synthetic(const model::ModelConfig& cfg,
                                                    std::uint64_t seed,
                                                    SessionOptions opts = {});

    // Tokenizes `prompt`, prefills, decodes up to `max_new_tokens`.
    GenerationOutput generate(const std::string& prompt, std::size_t max_new_tokens);

    void reset();

    // Tokens in the session's KV history (prompts and fed tokens so far).
    [[nodiscard]] std::size_t position() const { return accel_->position(slot_); }
    [[nodiscard]] const model::ModelConfig& config() const noexcept {
        return model_->config;
    }
    [[nodiscard]] const model::ByteTokenizer& tokenizer() const noexcept {
        return tokenizer_;
    }
    [[nodiscard]] const SerialConsole& console() const noexcept { return console_; }
    [[nodiscard]] accel::Accelerator& accelerator() noexcept { return *accel_; }

private:
    std::unique_ptr<accel::PackedModel> model_;
    model::ByteTokenizer tokenizer_;
    std::unique_ptr<accel::Accelerator> accel_;
    model::Sampler sampler_;
    SerialConsole console_;
    std::size_t slot_ = 0;  // DecodeBackend slot held for the session's life
};

}  // namespace efld::runtime
