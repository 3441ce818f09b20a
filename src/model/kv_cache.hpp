// Key/value caches: float (reference) and KV8-quantized (deployed form).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "quant/kvquant.hpp"

namespace efld::model {

// Float KV cache for the golden engine. Storage is head-major —
// [layer][head][token][head_dim] — so one head's whole history is a
// contiguous slab: decode-phase attention reads it as a zero-copy span
// instead of gathering a strided copy per head per token.
class KvCache {
public:
    explicit KvCache(const ModelConfig& cfg);

    void append(std::size_t layer, std::span<const float> k, std::span<const float> v);

    // Zero-copy history for one KV head: `len` contiguous rows of head_dim.
    [[nodiscard]] std::span<const float> keys_span(std::size_t layer, std::size_t kv_head,
                                                   std::size_t len) const;
    [[nodiscard]] std::span<const float> values_span(std::size_t layer, std::size_t kv_head,
                                                     std::size_t len) const;

    // Copying accessors kept for tests/tools that want owning history.
    [[nodiscard]] std::vector<float> keys_for_head(std::size_t layer, std::size_t kv_head,
                                                   std::size_t len) const;
    [[nodiscard]] std::vector<float> values_for_head(std::size_t layer, std::size_t kv_head,
                                                     std::size_t len) const;

    [[nodiscard]] std::size_t length() const noexcept { return len_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cfg_.max_seq_len; }
    void reset() noexcept { len_ = 0; appended_this_pos_ = 0; }

private:
    [[nodiscard]] std::size_t head_slab(std::size_t kv_head) const noexcept {
        return kv_head * cfg_.max_seq_len * cfg_.head_dim();
    }

    ModelConfig cfg_;
    std::size_t len_ = 0;
    std::size_t appended_this_pos_ = 0;
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

    // Quantizes and stores one token's K and V for a layer (per-head params).
    void append(std::size_t layer, std::span<const float> k, std::span<const float> v);

    // Dequantized history for one head (matches KvCache accessors).
    [[nodiscard]] std::vector<float> keys_for_head(std::size_t layer, std::size_t kv_head,
                                                   std::size_t len) const;
    [[nodiscard]] std::vector<float> values_for_head(std::size_t layer, std::size_t kv_head,
                                                     std::size_t len) const;

    // Allocation-free variants: dequantize `len` rows into caller scratch of
    // at least len * head_dim floats. Returns the filled prefix.
    std::span<const float> dequant_keys_into(std::size_t layer, std::size_t kv_head,
                                             std::size_t len, std::span<float> out) const;
    std::span<const float> dequant_values_into(std::size_t layer, std::size_t kv_head,
                                               std::size_t len, std::span<float> out) const;

    [[nodiscard]] quant::KvQuantParams key_params(std::size_t layer, std::size_t token,
                                                  std::size_t kv_head) const;
    [[nodiscard]] quant::KvQuantParams value_params(std::size_t layer, std::size_t token,
                                                    std::size_t kv_head) const;

    [[nodiscard]] std::size_t length() const noexcept { return len_; }
    void reset() noexcept { len_ = 0; appended_this_pos_ = 0; }

private:
    [[nodiscard]] std::size_t slot(std::size_t layer, std::size_t token,
                                   std::size_t kv_head) const noexcept;

    ModelConfig cfg_;
    unsigned kv_bits_ = 8;
    std::size_t len_ = 0;
    std::size_t appended_this_pos_ = 0;
    std::vector<quant::KvQuantized> k_;  // layer-major [layer][token][head]
    std::vector<quant::KvQuantized> v_;
};

}  // namespace efld::model
