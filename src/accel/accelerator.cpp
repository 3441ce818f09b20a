#include "accel/accelerator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/profiler.hpp"

namespace efld::accel {

Accelerator::Accelerator(const PackedModel& m, AcceleratorOptions opts)
    : model_(&m),
      opts_(opts),
      timing_(m.config, model::QuantScheme::w4a16_kv8(), opts.accel, opts.mem),
      rope_(m.config.rope_theta),
      softmax_(exp_),
      silu_(exp_) {
    if (opts_.max_batch == 0) {
        throw std::invalid_argument("AcceleratorOptions: max_batch must be >= 1");
    }
    if (opts_.prefix_sharing && opts_.accel.kv_page_tokens == 0) {
        throw std::invalid_argument(
            "AcceleratorOptions: prefix_sharing requires accel.kv_page_tokens > 0");
    }
    const std::size_t mb = opts_.max_batch;
    sz_fifo_.reserve(mb);
    for (std::size_t s = 0; s < mb; ++s) {
        sz_fifo_.emplace_back(m.config.n_layers, m.config.n_kv_heads);
    }
    pos_.assign(mb, 0);
    slots_ = engine::SlotLedger(mb);
    k_cache_.resize(mb * m.config.n_layers * m.config.max_seq_len *
                    m.config.n_kv_heads);
    v_cache_.resize(k_cache_.size());
    ctx_scratch_.reserve(mb);

    const model::ModelConfig& c = m.config;
    for (auto* v : {&x_, &xn_, &q_, &att_out_, &proj_}) v->resize(c.dim);
    k_.resize(c.kv_dim());
    v_.resize(c.kv_dim());
    for (auto* v : {&gate_, &up_, &hidden_}) v->resize(c.hidden_dim);
    scores_.resize(c.max_seq_len);
    probs_.resize(c.max_seq_len);
    logits_h_.resize(c.vocab_size);
    for (auto* v : {&q_head_, &kv_head_, &out_head_}) v->resize(c.head_dim());
}

void Accelerator::reset_session(std::size_t slot) {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    pos_[slot] = 0;
    sz_fifo_[slot] =
        quant::ScaleZeroFifo(model_->config.n_layers, model_->config.n_kv_heads);
    const std::size_t per_session =
        model_->config.n_layers * model_->config.max_seq_len * model_->config.n_kv_heads;
    for (std::size_t i = slot * per_session; i < (slot + 1) * per_session; ++i) {
        k_cache_[i] = KvEntry{};
        v_cache_[i] = KvEntry{};
    }
}

void Accelerator::reset() {
    for (std::size_t s = 0; s < opts_.max_batch; ++s) reset_session(s);
}

std::size_t Accelerator::position(std::size_t slot) const {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    return pos_[slot];
}

std::size_t Accelerator::reserve_slot() { return slots_.acquire(); }

void Accelerator::release_slot(std::size_t slot) {
    check(slots_.release(slot), "release_slot: slot out of range or not reserved");
    reset_session(slot);
}

std::size_t Accelerator::kv_slot(std::size_t session, std::size_t layer,
                                 std::size_t token, std::size_t kv_head) const noexcept {
    return ((session * model_->config.n_layers + layer) * model_->config.max_seq_len +
            token) *
               model_->config.n_kv_heads +
           kv_head;
}

std::size_t Accelerator::page_entry_idx(std::size_t layer, std::size_t t,
                                        std::size_t kv_head) const noexcept {
    return (layer * opts_.accel.kv_page_tokens + t) * model_->config.n_kv_heads +
           kv_head;
}

std::size_t Accelerator::matched_pages(
    const std::vector<std::uint64_t>& hashes) const {
    std::size_t n = 0;
    while (n < hashes.size() &&
           prefix_store_.find(hashes[n]) != prefix_store_.end()) {
        ++n;
    }
    return n;
}

std::size_t Accelerator::probe_prefix(std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) const {
    if (!opts_.prefix_sharing) return 0;
    const std::size_t pt = opts_.accel.kv_page_tokens;
    const std::vector<std::uint64_t> hashes = prefix::prefix_chain_hashes(prompt, pt);
    const std::lock_guard<std::mutex> lock(prefix_mu_);
    // Full pages only: the scale-zero FIFO replay leaves a prefilled state
    // only at a flush boundary.
    std::size_t covered = std::min(matched_pages(hashes) * pt, max_cover);
    return covered - covered % pt;
}

std::size_t Accelerator::adopt_prefix(std::size_t slot,
                                      std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) {
    if (!opts_.prefix_sharing) return 0;
    const model::ModelConfig& cfg = model_->config;
    check(slot < opts_.max_batch, "adopt_prefix: slot out of range");
    check(pos_[slot] == 0, "adopt_prefix: slot already holds history");
    const std::size_t pt = opts_.accel.kv_page_tokens;
    const std::vector<std::uint64_t> hashes = prefix::prefix_chain_hashes(prompt, pt);
    const std::lock_guard<std::mutex> lock(prefix_mu_);
    std::size_t covered = std::min(matched_pages(hashes) * pt, max_cover);
    covered -= covered % pt;
    if (covered == 0) return 0;
    check(covered <= cfg.max_seq_len, "adopt_prefix: prefix exceeds context window");
    // Deep-copy the stored entries into the slot's caches and replay their
    // scale-zero packs through the slot's fresh FIFO in prefill order, so the
    // slot state is bit-for-bit what re-prefilling the covered span produces.
    for (std::size_t tok = 0; tok < covered; ++tok) {
        const StoredPage& page = prefix_store_.at(hashes[tok / pt]);
        for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
            for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
                const std::size_t e = page_entry_idx(layer, tok % pt, h);
                k_cache_[kv_slot(slot, layer, tok, h)] = page.k[e];
                v_cache_[kv_slot(slot, layer, tok, h)] = page.v[e];
                (void)sz_fifo_[slot].append(layer, h, false, tok, page.k[e].params);
                (void)sz_fifo_[slot].append(layer, h, true, tok, page.v[e].params);
            }
        }
    }
    pos_[slot] = covered;
    prefix_hits_.fetch_add(1, std::memory_order_relaxed);
    prefix_covered_.fetch_add(covered, std::memory_order_relaxed);
    return covered;
}

std::size_t Accelerator::register_prefix(std::size_t slot,
                                         std::span<const std::int32_t> prompt,
                                         std::size_t max_new_pages) {
    if (!opts_.prefix_sharing || max_new_pages == 0) return 0;
    const model::ModelConfig& cfg = model_->config;
    check(slot < opts_.max_batch, "register_prefix: slot out of range");
    const std::size_t pt = opts_.accel.kv_page_tokens;
    const std::vector<std::uint64_t> hashes = prefix::prefix_chain_hashes(prompt, pt);
    if (pos_[slot] < hashes.size() * pt) return 0;  // prefill incomplete
    const std::size_t epp = cfg.n_layers * pt * cfg.n_kv_heads;
    const std::lock_guard<std::mutex> lock(prefix_mu_);
    std::size_t added = 0;
    for (std::size_t p = 0; p < hashes.size() && added < max_new_pages; ++p) {
        if (prefix_store_.find(hashes[p]) != prefix_store_.end()) continue;
        StoredPage page;
        page.k.resize(epp);
        page.v.resize(epp);
        for (std::size_t t = 0; t < pt; ++t) {
            const std::size_t tok = p * pt + t;
            for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
                for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
                    const std::size_t e = page_entry_idx(layer, t, h);
                    page.k[e] = k_cache_[kv_slot(slot, layer, tok, h)];
                    page.v[e] = v_cache_[kv_slot(slot, layer, tok, h)];
                }
            }
        }
        prefix_store_.emplace(hashes[p], std::move(page));
        ++added;
    }
    return added;
}

std::size_t Accelerator::drop_prefix_cache() {
    const std::lock_guard<std::mutex> lock(prefix_mu_);
    const std::size_t n = prefix_store_.size();
    prefix_store_.clear();
    return n;
}

engine::PrefixSharingStats Accelerator::prefix_stats() const {
    engine::PrefixSharingStats s;
    s.hits = prefix_hits_.load(std::memory_order_relaxed);
    s.covered_tokens = prefix_covered_.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(prefix_mu_);
    s.pages_shared = prefix_store_.size();
    return s;
}

void Accelerator::attention(std::size_t layer, std::size_t slot) {
    const obs::ScopedPhase phase(profiler_, obs::Phase::kAttention);
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];
    const std::size_t hd = cfg.head_dim();
    const std::size_t heads_per_kv = cfg.n_heads / cfg.n_kv_heads;
    const std::size_t pos = pos_[slot];

    // Layer-entry RMSNorm (square sum computed by the DOT engine side-path).
    rms_.run(x_, lw.attn_norm, cfg.rms_eps, xn_, SpuRmsNorm::square_sum(x_));

    // Projections from the interleaved weight streams.
    vpu_.gemv(lw.wq.stream, cfg.dim, cfg.dim, xn_, q_);
    vpu_.gemv(lw.wk.stream, cfg.kv_dim(), cfg.dim, xn_, k_);
    vpu_.gemv(lw.wv.stream, cfg.kv_dim(), cfg.dim, xn_, v_);

    // On-the-fly RoPE.
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        rope_.run(std::span<Fp16>(q_).subspan(h * hd, hd), pos);
    }
    for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
        rope_.run(std::span<Fp16>(k_).subspan(h * hd, hd), pos);
    }

    // Online KV8 quantization; packs go through the Fig. 4B FIFO, codes
    // through the serial-to-parallel unit (to DDR on the real device).
    for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
        SpuQuant::Result qk = kv_quant_.run(std::span<const Fp16>(k_).subspan(h * hd, hd));
        SpuQuant::Result qv = kv_quant_.run(std::span<const Fp16>(v_).subspan(h * hd, hd));
        for (const std::uint8_t c : qk.codes) (void)s2p_.push_byte(c);
        for (const std::uint8_t c : qv.codes) (void)s2p_.push_byte(c);
        (void)sz_fifo_[slot].append(layer, h, false, pos, qk.params);
        (void)sz_fifo_[slot].append(layer, h, true, pos, qv.params);
        k_cache_[kv_slot(slot, layer, pos, h)] = {std::move(qk.codes), qk.params};
        v_cache_[kv_slot(slot, layer, pos, h)] = {std::move(qv.codes), qv.params};
    }

    // Head-wise attention: history from the quantized cache, the current
    // token's K/V used pre-quantization (they are still on chip — §V.A).
    // Lanes are exact fp16 floats and every multiply and add rounds once,
    // as in the VPU.
    const Fp16 inv_sqrt_d = Fp16::from_float(1.0f / std::sqrt(static_cast<float>(hd)));
    const std::span<const Fp16> scores(scores_.data(), pos + 1);
    const std::span<Fp16> probs(probs_.data(), pos + 1);
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        const std::size_t kvh = h / heads_per_kv;
        for (std::size_t i = 0; i < hd; ++i) q_head_[i] = q_[h * hd + i].to_float();

        for (std::size_t t = 0; t < pos; ++t) {
            const KvEntry& e = k_cache_[kv_slot(slot, layer, t, kvh)];
            DequantUnit::run_kv(e.codes, e.params, kv_head_);
            scores_[t] = Fp16::from_float(DotEngine::dot(q_head_, kv_head_)) * inv_sqrt_d;
        }
        for (std::size_t i = 0; i < hd; ++i) kv_head_[i] = k_[kvh * hd + i].to_float();
        scores_[pos] = Fp16::from_float(DotEngine::dot(q_head_, kv_head_)) * inv_sqrt_d;

        softmax_.run(scores, probs);

        // Scaled-dot accumulation of values (fp16 MACs, one value row at a
        // time as the history streams in).
        std::fill(out_head_.begin(), out_head_.end(), 0.0f);
        const auto accumulate = [&](Fp16 prob) {
            const float p = prob.to_float();
            for (std::size_t i = 0; i < hd; ++i) {
                out_head_[i] = round_to_fp16(out_head_[i] + round_to_fp16(p * kv_head_[i]));
            }
        };
        for (std::size_t t = 0; t < pos; ++t) {
            const KvEntry& e = v_cache_[kv_slot(slot, layer, t, kvh)];
            DequantUnit::run_kv(e.codes, e.params, kv_head_);
            accumulate(probs[t]);
        }
        for (std::size_t i = 0; i < hd; ++i) kv_head_[i] = v_[kvh * hd + i].to_float();
        accumulate(probs[pos]);
        for (std::size_t i = 0; i < hd; ++i) {
            att_out_[h * hd + i] = Fp16::from_float(out_head_[i]);
        }
    }

    // Output projection + residual add (fused with the square-sum pass).
    vpu_.gemv(lw.wo.stream, cfg.dim, cfg.dim, att_out_, proj_);
    for (std::size_t i = 0; i < cfg.dim; ++i) x_[i] = x_[i] + proj_[i];
}

void Accelerator::mlp(std::size_t layer) {
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];

    rms_.run(x_, lw.mlp_norm, cfg.rms_eps, xn_, SpuRmsNorm::square_sum(x_));

    vpu_.gemv(lw.w_gate.stream, cfg.hidden_dim, cfg.dim, xn_, gate_);
    vpu_.gemv(lw.w_up.stream, cfg.hidden_dim, cfg.dim, xn_, up_);
    silu_.run(gate_, up_, hidden_);

    vpu_.gemv(lw.w_down.stream, cfg.dim, cfg.hidden_dim, hidden_, proj_);
    for (std::size_t i = 0; i < cfg.dim; ++i) x_[i] = x_[i] + proj_[i];
}

void Accelerator::forward_slot(std::int32_t token, std::size_t slot,
                               std::span<float> logits_out) {
    const model::ModelConfig& cfg = model_->config;
    check(token >= 0 && static_cast<std::uint64_t>(token) < cfg.vocab_size,
          "Accelerator: token out of range");
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    check(pos_[slot] < cfg.max_seq_len, "Accelerator: KV reservation exhausted");
    check(logits_out.size() >= cfg.vocab_size, "Accelerator: logits_out too small");

    // Embedding row (fp16 in DDR).
    const std::size_t base = static_cast<std::size_t>(token) * cfg.dim;
    std::copy_n(model_->embedding.begin() + static_cast<std::ptrdiff_t>(base), cfg.dim,
                x_.begin());

    for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
        attention(layer, slot);
        mlp(layer);
    }

    rms_.run(x_, model_->final_norm, cfg.rms_eps, xn_, SpuRmsNorm::square_sum(x_));
    vpu_.gemv(model_->lm_head.stream, cfg.vocab_size, cfg.dim, xn_, logits_h_);
    for (std::size_t i = 0; i < cfg.vocab_size; ++i) {
        logits_out[i] = logits_h_[i].to_float();
    }
    ++pos_[slot];
}

StepResult Accelerator::step(std::int32_t token) {
    StepResult r;
    r.logits.resize(model_->config.vocab_size);
    const std::size_t ctx = pos_[0];
    forward_slot(token, 0, r.logits);
    if (opts_.collect_timing) {
        r.timing = timing_.token_timing(ctx);
    }
    return r;
}

void Accelerator::decode_batch(std::span<const std::int32_t> tokens,
                               std::span<const std::size_t> slots,
                               std::span<float> logits_out) {
    const std::size_t nb = tokens.size();
    const std::size_t vocab = model_->config.vocab_size;
    check(nb >= 1, "decode_batch: empty batch");
    check(nb == slots.size(), "decode_batch: tokens/slots size mismatch");
    check(nb <= opts_.max_batch, "decode_batch: batch exceeds max_batch");
    check(logits_out.size() >= nb * vocab, "decode_batch: logits_out too small");
    for (std::size_t b = 0; b < nb; ++b) {
        check(slots[b] < opts_.max_batch, "decode_batch: slot out of range");
        for (std::size_t c = b + 1; c < nb; ++c) {
            check(slots[b] != slots[c], "decode_batch: duplicate slot");
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    ctx_scratch_.clear();
    for (std::size_t b = 0; b < nb; ++b) ctx_scratch_.push_back(pos_[slots[b]]);

    // Functional math is per-session (each lane bit-identical to a solo run);
    // the device prices the step batched — weights once, KV per session.
    for (std::size_t b = 0; b < nb; ++b) {
        forward_slot(tokens[b], slots[b], logits_out.subspan(b * vocab, vocab));
    }
    const auto t1 = std::chrono::steady_clock::now();

    last_cost_.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (opts_.collect_timing) {
        const TokenTiming timing = timing_.batch_timing(ctx_scratch_);
        last_cost_.simulated_ns = timing.total_ns;
        last_cost_.sim_mem_bound_ns = timing.mem_bound_ns;
        last_cost_.sim_compute_ns = timing.spu_exposed_ns;
        last_cost_.sim_overhead_ns = timing.overhead_ns;
    } else {
        last_cost_.simulated_ns = 0.0;
        last_cost_.sim_mem_bound_ns = 0.0;
        last_cost_.sim_compute_ns = 0.0;
        last_cost_.sim_overhead_ns = 0.0;
    }
    last_cost_.weight_walks = 1.0;  // one streaming pass over the weights per step
}

GenerationResult Accelerator::generate(std::span<const std::int32_t> prompt,
                                       std::size_t max_new, model::Sampler& sampler,
                                       std::int32_t eos) {
    check(!prompt.empty(), "Accelerator: empty prompt");
    GenerationResult g;

    StepResult last;
    for (const std::int32_t t : prompt) last = step(t);

    // Same attribution rule as InferenceSession::generate: a token is billed
    // the decode step that consumes it, so total_ns covers exactly the decode
    // steps executed here (prefill is TTFT, not decode time).
    for (std::size_t i = 0; i < max_new && pos_[0] < model_->config.max_seq_len; ++i) {
        const std::int32_t next = sampler.sample(last.logits);
        g.tokens.push_back(next);
        if (next == eos) break;
        last = step(next);
        g.total_ns += last.timing.total_ns;
    }
    return g;
}

}  // namespace efld::accel
