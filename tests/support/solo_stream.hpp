// One session on a decode backend, fed one token per decode_batch step: the
// token-by-token run the parity tests hold every engine to.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "engine/decode_backend.hpp"

namespace efld::tests {

class SoloStream {
public:
    // Reserves a slot on `backend`, which must outlive the stream.
    explicit SoloStream(engine::DecodeBackend& backend)
        : backend_(&backend),
          slot_(backend.reserve_slot()),
          logits_(backend.config().vocab_size) {
        check(slot_ != engine::DecodeBackend::kNoSlot, "SoloStream: no free slot");
    }

    // Feeds one token; returns its logits (overwritten by the next step).
    const std::vector<float>& step(std::int32_t token) {
        backend_->decode_batch(std::span<const std::int32_t>(&token, 1),
                               std::span<const std::size_t>(&slot_, 1), logits_);
        return logits_;
    }

    // Feeds `tokens` one per step; returns the last token's logits.
    const std::vector<float>& feed(std::span<const std::int32_t> tokens) {
        for (const std::int32_t t : tokens) (void)step(t);
        return logits_;
    }

    [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
    [[nodiscard]] std::size_t position() const { return backend_->position(slot_); }

private:
    engine::DecodeBackend* backend_;
    std::size_t slot_;
    std::vector<float> logits_;
};

}  // namespace efld::tests
