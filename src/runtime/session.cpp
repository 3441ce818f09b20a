#include "runtime/session.hpp"

#include <iostream>

#include "common/check.hpp"
#include "engine/generate.hpp"

namespace efld::runtime {

InferenceSession::InferenceSession(accel::PackedModel model, SessionOptions opts)
    : model_(std::make_unique<accel::PackedModel>(std::move(model))),
      accel_(std::make_unique<accel::Accelerator>(*model_, opts.accel)),
      sampler_(opts.sampler),
      console_(opts.echo_to_stdout ? &std::cout : nullptr) {
    check(static_cast<std::uint64_t>(tokenizer_.vocab_size()) <= model_->config.vocab_size,
          "InferenceSession: model vocab too small for the byte tokenizer");
    // The session holds one backend slot for its whole life (its KV history
    // persists across generate() calls until reset()).
    slot_ = accel_->reserve_slot();
    check(slot_ != engine::DecodeBackend::kNoSlot,
          "InferenceSession: accelerator has no free session slot");
}

InferenceSession InferenceSession::synthetic(const model::ModelConfig& cfg,
                                             std::uint64_t seed, SessionOptions opts) {
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, seed);
    quant::GroupQuantConfig qc;  // W4 group-128, the deployed scheme
    const model::QuantizedModelWeights qw = model::QuantizedModelWeights::quantize(fw, qc);
    return InferenceSession(accel::PackedModel::build(qw), opts);
}

GenerationOutput InferenceSession::generate(const std::string& prompt,
                                            std::size_t max_new_tokens) {
    engine::Generation g = engine::generate(
        *accel_, slot_, tokenizer_.encode(prompt), max_new_tokens, sampler_, model::ByteTokenizer::kEos,
        [this](std::int32_t id, double sim_ns) {
            console_.emit(tokenizer_.decode_token(id), sim_ns);
        });
    console_.newline();
    GenerationOutput out;
    out.text = tokenizer_.decode(g.tokens);
    out.tokens = std::move(g.tokens);
    out.simulated_ns = g.simulated_ns;
    return out;
}

void InferenceSession::reset() { accel_->reset(); }

}  // namespace efld::runtime
