// Contiguous key/value caches: float (reference) and KV8-quantized (deployed
// form), one max_seq_len reservation per sequence. No engine stores its KV
// here: both backends keep it in the kvpool arenas (kvpool/paged_kv_cache.hpp).
// These are the arenas' test oracles — the straightforward layout a paged
// read must reproduce bit for bit (test_paged_kv_cache) — and the home of
// SpanCadence, the append rule every store shares.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "quant/kvquant.hpp"

namespace efld::model {

// The append cadence every KV store shares: all layers append the same span
// of n >= 1 tokens, then the next span opens. A decode step appends a
// one-token span; a prefill tile appends its whole span at once.
struct SpanCadence {
    std::size_t layers_done = 0;  // layers written for the open span
    std::size_t tokens = 0;       // tokens in the open span

    // True when an n-token append opens a new span (its first layer). A
    // later layer of an open span must pass the same n (throws otherwise).
    [[nodiscard]] bool opens(std::size_t n) const;
    // Records one layer's write of an n-token span; true when it was the
    // last layer, so the span's tokens now count as history.
    bool advance(std::size_t n, std::size_t n_layers) noexcept {
        tokens = n;
        if (++layers_done < n_layers) return false;
        layers_done = 0;
        return true;
    }
};

// Float KV cache for the golden engine. Storage is head-major —
// [layer][head][token][head_dim] — so one head's whole history is a
// contiguous slab: decode-phase attention reads it as a zero-copy span
// instead of gathering a strided copy per head per token.
class KvCache {
public:
    explicit KvCache(const ModelConfig& cfg);

    // Appends a span of n >= 1 consecutive tokens for `layer`: k and v hold
    // n rows of kv_dim. All layers append the same span, then the next span
    // starts (the length advances by n after the last layer).
    void append(std::size_t layer, std::span<const float> k, std::span<const float> v);

    // Zero-copy history for one KV head: `len` contiguous rows of head_dim.
    [[nodiscard]] std::span<const float> keys_span(std::size_t layer, std::size_t kv_head,
                                                   std::size_t len) const;
    [[nodiscard]] std::span<const float> values_span(std::size_t layer, std::size_t kv_head,
                                                     std::size_t len) const;

    [[nodiscard]] std::size_t length() const noexcept { return len_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cfg_.max_seq_len; }
    void reset() noexcept { len_ = 0; cadence_ = {}; }

private:
    [[nodiscard]] std::size_t head_slab(std::size_t kv_head) const noexcept {
        return kv_head * cfg_.max_seq_len * cfg_.head_dim();
    }

    ModelConfig cfg_;
    std::size_t len_ = 0;
    SpanCadence cadence_;
    // [layer][(head * max_seq_len + token) * head_dim + element]
    std::vector<std::vector<float>> k_;
    std::vector<std::vector<float>> v_;
};

// KV8 cache mirroring the DDR-resident layout: one code vector + one
// scale-zero pack per (layer, token, kv_head, K|V).
class QuantizedKvCache {
public:
    // `kv_bits` selects the code grid (8 = deployed KV8; 4 = the KV4 variant
    // the paper rejects for <=13B models).
    explicit QuantizedKvCache(const ModelConfig& cfg, unsigned kv_bits = 8);

    // Quantizes and stores a span of n >= 1 tokens' K and V for a layer
    // (per-head params per token), with KvCache::append's span cadence.
    void append(std::size_t layer, std::span<const float> k, std::span<const float> v);

    // Dequantized history for one head (the counterpart of KvCache::keys_span):
    // `len` rows into caller scratch of at least len * head_dim floats.
    // Returns the filled prefix.
    std::span<const float> dequant_keys_into(std::size_t layer, std::size_t kv_head,
                                             std::size_t len, std::span<float> out) const;
    std::span<const float> dequant_values_into(std::size_t layer, std::size_t kv_head,
                                               std::size_t len, std::span<float> out) const;

    [[nodiscard]] quant::KvQuantParams key_params(std::size_t layer, std::size_t token,
                                                  std::size_t kv_head) const;
    [[nodiscard]] quant::KvQuantParams value_params(std::size_t layer, std::size_t token,
                                                    std::size_t kv_head) const;

    [[nodiscard]] std::size_t length() const noexcept { return len_; }
    void reset() noexcept { len_ = 0; cadence_ = {}; }

private:
    [[nodiscard]] std::size_t slot(std::size_t layer, std::size_t token,
                                   std::size_t kv_head) const noexcept;

    ModelConfig cfg_;
    unsigned kv_bits_ = 8;
    std::size_t len_ = 0;
    SpanCadence cadence_;
    std::vector<quant::KvQuantized> k_;  // layer-major [layer][token][head]
    std::vector<quant::KvQuantized> v_;
};

}  // namespace efld::model
