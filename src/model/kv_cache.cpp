#include "model/kv_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::model {

KvCache::KvCache(const ModelConfig& cfg) : cfg_(cfg), k_(cfg.n_layers), v_(cfg.n_layers) {
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        k_[l].resize(cfg.max_seq_len * cfg.kv_dim());
        v_[l].resize(cfg.max_seq_len * cfg.kv_dim());
    }
}

bool SpanCadence::opens(std::size_t n) const {
    check(n >= 1, "KV append: empty span");
    check(layers_done == 0 || n == tokens,
          "KV append: a layer appended a different span than the first layer");
    return layers_done == 0;
}

void KvCache::append(std::size_t layer, std::span<const float> k, std::span<const float> v) {
    check(layer < cfg_.n_layers, "KvCache: layer out of range");
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(), "KvCache: bad vector size");
    const std::size_t n = k.size() / kvd;
    (void)cadence_.opens(n);
    check(len_ + n <= cfg_.max_seq_len, "KvCache: capacity exceeded");
    const std::size_t hd = cfg_.head_dim();
    // Scatter the packed [head][head_dim] token vectors into the per-head
    // slabs; the write is strided so every read can be contiguous.
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            const std::size_t off = head_slab(h) + (len_ + t) * hd;
            std::copy_n(k.data() + t * kvd + h * hd, hd, k_[layer].data() + off);
            std::copy_n(v.data() + t * kvd + h * hd, hd, v_[layer].data() + off);
        }
    }
    if (cadence_.advance(n, cfg_.n_layers)) len_ += n;
}

std::span<const float> KvCache::keys_span(std::size_t layer, std::size_t kv_head,
                                          std::size_t len) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads, "KvCache: bad head");
    check(len <= cfg_.max_seq_len, "KvCache: history longer than capacity");
    return std::span<const float>(k_[layer]).subspan(head_slab(kv_head),
                                                     len * cfg_.head_dim());
}

std::span<const float> KvCache::values_span(std::size_t layer, std::size_t kv_head,
                                            std::size_t len) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads, "KvCache: bad head");
    check(len <= cfg_.max_seq_len, "KvCache: history longer than capacity");
    return std::span<const float>(v_[layer]).subspan(head_slab(kv_head),
                                                     len * cfg_.head_dim());
}

QuantizedKvCache::QuantizedKvCache(const ModelConfig& cfg, unsigned kv_bits)
    : cfg_(cfg),
      kv_bits_(kv_bits),
      k_(cfg.n_layers * cfg.max_seq_len * cfg.n_kv_heads),
      v_(cfg.n_layers * cfg.max_seq_len * cfg.n_kv_heads) {}

std::size_t QuantizedKvCache::slot(std::size_t layer, std::size_t token,
                                   std::size_t kv_head) const noexcept {
    return (layer * cfg_.max_seq_len + token) * cfg_.n_kv_heads + kv_head;
}

void QuantizedKvCache::append(std::size_t layer, std::span<const float> k,
                              std::span<const float> v) {
    check(layer < cfg_.n_layers, "QuantizedKvCache: layer out of range");
    const std::size_t kvd = cfg_.kv_dim();
    check(k.size() % kvd == 0 && v.size() == k.size(),
          "QuantizedKvCache: bad vector size");
    const std::size_t n = k.size() / kvd;
    (void)cadence_.opens(n);
    check(len_ + n <= cfg_.max_seq_len, "QuantizedKvCache: capacity exceeded");
    const std::size_t hd = cfg_.head_dim();
    // Quantized in place, reusing the entry's code buffer.
    const auto store = [&](std::span<const float> x, quant::KvQuantized& e) {
        e.codes.resize(hd);
        e.params = quant::kv_quantize_bits_into(x, kv_bits_, e.codes);
    };
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
            // Per-head quantization: one scale-zero pack per head per token,
            // the granularity the paged arena and the Fig. 4B FIFO use.
            const std::size_t off = t * kvd + h * hd;
            const std::size_t e = slot(layer, len_ + t, h);
            store(k.subspan(off, hd), k_[e]);
            store(v.subspan(off, hd), v_[e]);
        }
    }
    if (cadence_.advance(n, cfg_.n_layers)) len_ += n;
}

std::span<const float> QuantizedKvCache::dequant_keys_into(std::size_t layer,
                                                           std::size_t kv_head,
                                                           std::size_t len,
                                                           std::span<float> out) const {
    const std::size_t hd = cfg_.head_dim();
    check(out.size() >= len * hd, "QuantizedKvCache: dequant scratch too small");
    for (std::size_t t = 0; t < len; ++t) {
        const quant::KvQuantized& e = k_[slot(layer, t, kv_head)];
        quant::kv_dequantize_into(e.codes, e.params, out.subspan(t * hd, hd));
    }
    return out.first(len * hd);
}

std::span<const float> QuantizedKvCache::dequant_values_into(std::size_t layer,
                                                             std::size_t kv_head,
                                                             std::size_t len,
                                                             std::span<float> out) const {
    const std::size_t hd = cfg_.head_dim();
    check(out.size() >= len * hd, "QuantizedKvCache: dequant scratch too small");
    for (std::size_t t = 0; t < len; ++t) {
        const quant::KvQuantized& e = v_[slot(layer, t, kv_head)];
        quant::kv_dequantize_into(e.codes, e.params, out.subspan(t * hd, hd));
    }
    return out.first(len * hd);
}

quant::KvQuantParams QuantizedKvCache::key_params(std::size_t layer, std::size_t token,
                                                  std::size_t kv_head) const {
    return k_[slot(layer, token, kv_head)].params;
}

quant::KvQuantParams QuantizedKvCache::value_params(std::size_t layer, std::size_t token,
                                                    std::size_t kv_head) const {
    return v_[slot(layer, token, kv_head)].params;
}

}  // namespace efld::model
