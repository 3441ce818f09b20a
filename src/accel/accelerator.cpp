#include "accel/accelerator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/profiler.hpp"

namespace efld::accel {

namespace {

const AcceleratorOptions& validated(const AcceleratorOptions& opts) {
    if (opts.max_batch == 0) {
        throw std::invalid_argument("AcceleratorOptions: max_batch must be >= 1");
    }
    return opts;
}

// Lane b's row of an [lane][n] scratch vector, and lanes [0, nb) of it.
std::span<Fp16> lane(std::vector<Fp16>& v, std::size_t b, std::size_t n) {
    return std::span<Fp16>(v).subspan(b * n, n);
}
std::span<Fp16> lanes(std::vector<Fp16>& v, std::size_t nb, std::size_t n) {
    return std::span<Fp16>(v).first(nb * n);
}

}  // namespace

Accelerator::Accelerator(const PackedModel& m, AcceleratorOptions opts)
    : model_(&m),
      opts_(validated(opts)),
      timing_(m.config, model::QuantScheme::w4a16_kv8(), opts.accel, opts.mem),
      rope_(m.config.rope_theta),
      softmax_(exp_),
      silu_(exp_),
      kv_(m.config, kvpool::pool_config(m.config, opts.max_batch,
                                        opts.accel.kv_page_tokens, opts.kv_pool_pages)) {
    const std::size_t mb = opts_.max_batch;
    sz_fifo_.reserve(mb);
    for (std::size_t s = 0; s < mb; ++s) {
        sz_fifo_.emplace_back(m.config.n_layers, m.config.n_kv_heads);
        (void)kv_.create_sequence();
    }
    if (opts_.accel.kv_page_tokens > 0) prefix_.emplace(kv_.pool());
    pos_.assign(mb, 0);
    slots_ = engine::SlotLedger(mb);
    ctx_scratch_.reserve(mb);

    const model::ModelConfig& c = m.config;
    for (auto* v : {&x_, &xn_, &q_, &att_out_, &proj_}) v->resize(mb * c.dim);
    k_.resize(mb * c.kv_dim());
    v_.resize(mb * c.kv_dim());
    for (auto* v : {&gate_, &up_, &hidden_}) v->resize(mb * c.hidden_dim);
    logits_h_.resize(mb * c.vocab_size);
    scores_.resize(c.max_seq_len);
    probs_.resize(c.max_seq_len);
    for (auto* v : {&q_head_, &kv_head_, &out_head_}) v->resize(c.head_dim());
    k_row_.resize(c.kv_dim());
    v_row_.resize(c.kv_dim());
}

void Accelerator::reset_session(std::size_t slot) {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    pos_[slot] = 0;
    sz_fifo_[slot] =
        quant::ScaleZeroFifo(model_->config.n_layers, model_->config.n_kv_heads);
    kv_.reset_sequence(slot);  // pages back to the pool
}

void Accelerator::reset() {
    for (std::size_t s = 0; s < opts_.max_batch; ++s) reset_session(s);
}

std::size_t Accelerator::position(std::size_t slot) const {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    return pos_[slot];
}

const quant::ScaleZeroFifo& Accelerator::scale_zero_fifo(std::size_t slot) const {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    return sz_fifo_[slot];
}

std::size_t Accelerator::reserve_slot() { return slots_.acquire(); }

void Accelerator::release_slot(std::size_t slot) {
    check(slots_.release(slot), "release_slot: slot out of range or not reserved");
    reset_session(slot);
}

std::size_t Accelerator::probe_prefix(std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) const {
    return prefix_ ? prefix_->match(prompt, max_cover).covered : 0;
}

std::size_t Accelerator::adopt_prefix(std::size_t slot,
                                      std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) {
    if (!prefix_) return 0;
    const prefix::PrefixStore::Match m = prefix_->match(prompt, max_cover);
    if (m.covered == 0) return 0;
    kv_.adopt_prefix(slot, m.pages, m.covered);
    // Replay the adopted scale-zero packs through the slot's fresh FIFO in
    // prefill order, so it holds exactly what prefilling the covered tokens
    // would have left in it, partial last page included.
    for (std::size_t tok = 0; tok < m.covered; ++tok) {
        for (std::size_t layer = 0; layer < model_->config.n_layers; ++layer) {
            push_packs(slot, layer, tok);
        }
    }
    pos_[slot] = m.covered;
    return m.covered;
}

std::size_t Accelerator::register_prefix(std::size_t slot,
                                         std::span<const std::int32_t> prompt,
                                         std::size_t max_new_pages) {
    return prefix_ ? prefix_->register_prefix(slot, prompt, max_new_pages) : 0;
}

std::size_t Accelerator::drop_prefix_cache() { return prefix_ ? prefix_->drop() : 0; }

engine::PrefixSharingStats Accelerator::prefix_stats() const {
    if (!prefix_) return {};
    return {.pages_shared = prefix_->pages_held(),
            .cow_copies = static_cast<std::size_t>(kv_.pool().cow_copies())};
}

void Accelerator::norm(std::span<const Fp16> weight, std::size_t nb) {
    const model::ModelConfig& cfg = model_->config;
    for (std::size_t b = 0; b < nb; ++b) {
        // Square sum computed by the DOT engine side-path.
        const std::span<const Fp16> x = lane(x_, b, cfg.dim);
        rms_.run(x, weight, cfg.rms_eps, lane(xn_, b, cfg.dim), SpuRmsNorm::square_sum(x));
    }
}

void Accelerator::attention(std::size_t layer, std::span<const std::size_t> slots) {
    const obs::ScopedPhase phase(profiler_, obs::Phase::kAttention);
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];
    const std::size_t nb = slots.size();
    const std::size_t dim = cfg.dim;
    const std::size_t kvd = cfg.kv_dim();

    norm(lw.attn_norm, nb);  // layer-entry RMSNorm

    // Projections from the interleaved weight streams, one walk each.
    const std::span<const Fp16> xn = lanes(xn_, nb, dim);
    vpu_.gemm(lw.wq.stream, dim, dim, nb, xn, lanes(q_, nb, dim));
    vpu_.gemm(lw.wk.stream, kvd, dim, nb, xn, lanes(k_, nb, kvd));
    vpu_.gemm(lw.wv.stream, kvd, dim, nb, xn, lanes(v_, nb, kvd));

    for (std::size_t b = 0; b < nb; ++b) attend(layer, b, slots[b]);

    // Output projection + residual add (fused with the square-sum pass).
    vpu_.gemm(lw.wo.stream, dim, dim, nb, lanes(att_out_, nb, dim), lanes(proj_, nb, dim));
    for (std::size_t i = 0; i < nb * dim; ++i) x_[i] = x_[i] + proj_[i];
}

void Accelerator::attend(std::size_t layer, std::size_t lane_idx, std::size_t slot) {
    const model::ModelConfig& cfg = model_->config;
    const std::size_t hd = cfg.head_dim();
    const std::size_t heads_per_kv = cfg.n_heads / cfg.n_kv_heads;
    const std::size_t pos = pos_[slot];
    const std::span<Fp16> q = lane(q_, lane_idx, cfg.dim);
    const std::span<Fp16> k = lane(k_, lane_idx, cfg.kv_dim());
    const std::span<const Fp16> v = lane(v_, lane_idx, cfg.kv_dim());
    const std::span<Fp16> att_out = lane(att_out_, lane_idx, cfg.dim);

    // On-the-fly RoPE.
    for (std::size_t h = 0; h < cfg.n_heads; ++h) rope_.run(q.subspan(h * hd, hd), pos);
    for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) rope_.run(k.subspan(h * hd, hd), pos);

    // Online KV8 quantization: the arena quantizes the token's K and V
    // (exact fp16 values, so the float conversion is lossless) into its codes
    // and packs regions, and the packs go through the Fig. 4B FIFO.
    for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
        k_row_[i] = k[i].to_float();
        v_row_[i] = v[i].to_float();
    }
    kv_.append(slot, layer, k_row_, v_row_);
    push_packs(slot, layer, pos);

    // Head-wise attention: history rows 0 .. pos - 1 stream in from the
    // arena one page burst at a time and go through the DequantUnit, the
    // current token's K/V used pre-quantization (they are still on chip —
    // §V.A). Lanes are exact fp16 floats and every multiply and add rounds
    // once, as in the VPU.
    const std::size_t pt = kv_.pool().page_tokens();
    const auto walk = [&](std::size_t kvh, kvpool::KvPart part, const auto& fn) {
        for (std::size_t t0 = 0; t0 < pos; t0 += pt) {
            const kvpool::KvPage page = kv_.page(slot, layer, kvh, part, t0 / pt);
            for (std::size_t t = t0; t < std::min(t0 + pt, pos); ++t) {
                DequantUnit::run_kv(page.row(t - t0), page.params[t - t0], kv_head_);
                fn(t);
            }
        }
    };
    const Fp16 inv_sqrt_d = Fp16::from_float(1.0f / std::sqrt(static_cast<float>(hd)));
    const std::span<const Fp16> scores(scores_.data(), pos + 1);
    const std::span<Fp16> probs(probs_.data(), pos + 1);
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        const std::size_t kvh = h / heads_per_kv;
        for (std::size_t i = 0; i < hd; ++i) q_head_[i] = q[h * hd + i].to_float();

        walk(kvh, kvpool::KvPart::kKeys, [&](std::size_t t) {
            scores_[t] = Fp16::from_float(DotEngine::dot(q_head_, kv_head_)) * inv_sqrt_d;
        });
        for (std::size_t i = 0; i < hd; ++i) kv_head_[i] = k[kvh * hd + i].to_float();
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
        walk(kvh, kvpool::KvPart::kValues, [&](std::size_t t) { accumulate(probs[t]); });
        for (std::size_t i = 0; i < hd; ++i) kv_head_[i] = v[kvh * hd + i].to_float();
        accumulate(probs[pos]);
        for (std::size_t i = 0; i < hd; ++i) att_out[h * hd + i] = Fp16::from_float(out_head_[i]);
    }
}

void Accelerator::push_packs(std::size_t slot, std::size_t layer, std::size_t tok) {
    const std::size_t pt = kv_.pool().page_tokens();
    for (std::size_t h = 0; h < model_->config.n_kv_heads; ++h) {
        for (const kvpool::KvPart part : {kvpool::KvPart::kKeys, kvpool::KvPart::kValues}) {
            (void)sz_fifo_[slot].append(layer, h, part == kvpool::KvPart::kValues, tok,
                                        kv_.page(slot, layer, h, part, tok / pt).params[tok % pt]);
        }
    }
}

void Accelerator::mlp(std::size_t layer, std::size_t nb) {
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];
    const std::size_t dim = cfg.dim;
    const std::size_t hid = cfg.hidden_dim;

    norm(lw.mlp_norm, nb);

    const std::span<const Fp16> xn = lanes(xn_, nb, dim);
    vpu_.gemm(lw.w_gate.stream, hid, dim, nb, xn, lanes(gate_, nb, hid));
    vpu_.gemm(lw.w_up.stream, hid, dim, nb, xn, lanes(up_, nb, hid));
    // SiLU gating is elementwise: one pass covers every lane.
    silu_.run(lanes(gate_, nb, hid), lanes(up_, nb, hid), lanes(hidden_, nb, hid));

    vpu_.gemm(lw.w_down.stream, dim, hid, nb, lanes(hidden_, nb, hid), lanes(proj_, nb, dim));
    for (std::size_t i = 0; i < nb * dim; ++i) x_[i] = x_[i] + proj_[i];
}

void Accelerator::forward(std::span<const std::int32_t> tokens,
                          std::span<const std::size_t> slots, std::span<float> logits_out) {
    const model::ModelConfig& cfg = model_->config;
    const std::size_t nb = tokens.size();
    const std::size_t dim = cfg.dim;
    const std::size_t vocab = cfg.vocab_size;
    check(logits_out.size() >= nb * vocab, "Accelerator: logits_out too small");
    for (std::size_t b = 0; b < nb; ++b) {
        const std::int32_t token = tokens[b];
        check(token >= 0 && static_cast<std::uint64_t>(token) < vocab,
              "Accelerator: token out of range");
        check(pos_[slots[b]] < cfg.max_seq_len, "Accelerator: KV reservation exhausted");
        // Embedding row (fp16 in DDR).
        std::copy_n(model_->embedding.begin() +
                        static_cast<std::ptrdiff_t>(static_cast<std::size_t>(token) * dim),
                    dim, lane(x_, b, dim).begin());
    }

    for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
        attention(layer, slots);
        mlp(layer, nb);
    }

    norm(model_->final_norm, nb);
    vpu_.gemm(model_->lm_head.stream, vocab, dim, nb, lanes(xn_, nb, dim),
              lanes(logits_h_, nb, vocab));
    for (std::size_t i = 0; i < nb * vocab; ++i) logits_out[i] = logits_h_[i].to_float();
    for (const std::size_t slot : slots) ++pos_[slot];
}

void Accelerator::decode_batch(std::span<const std::int32_t> tokens,
                               std::span<const std::size_t> slots,
                               std::span<const std::size_t> rows,
                               std::span<float> logits_out) {
    const std::size_t nb = tokens.size();
    const std::size_t vocab = model_->config.vocab_size;
    check(nb >= 1, "decode_batch: empty batch");
    check(nb == slots.size(), "decode_batch: tokens/slots size mismatch");
    check(rows.empty() || (rows.size() == nb &&
                           std::all_of(rows.begin(), rows.end(),
                                       [](std::size_t r) { return r == 1; })),
          "decode_batch: the accel twin takes one token per slot per step");
    check(nb <= opts_.max_batch, "decode_batch: batch exceeds max_batch");
    check(logits_out.size() >= nb * vocab, "decode_batch: logits_out too small");
    std::size_t pages = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        check(slots[b] < opts_.max_batch, "decode_batch: slot out of range");
        for (std::size_t c = b + 1; c < nb; ++c) {
            check(slots[b] != slots[c], "decode_batch: duplicate slot");
        }
        pages += kv_.pages_to_append(slots[b], 1);
    }
    // Checked before any lane quantizes or appends, so a step the pool
    // refuses leaves every slot's KV, position and scale-zero FIFO as it was.
    check(pages <= kv_.pool().pages_free(),
          "decode_batch: KV pool exhausted (admission should have deferred a "
          "sequence)");

    const auto t0 = std::chrono::steady_clock::now();
    ctx_scratch_.clear();
    for (std::size_t b = 0; b < nb; ++b) ctx_scratch_.push_back(pos_[slots[b]]);

    forward(tokens, slots, logits_out);
    const auto t1 = std::chrono::steady_clock::now();

    last_cost_.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const TokenTiming timing = timing_.batch_timing(ctx_scratch_);
    last_cost_.simulated_ns = timing.total_ns;
    last_cost_.sim_mem_bound_ns = timing.mem_bound_ns;
    last_cost_.sim_compute_ns = timing.spu_exposed_ns;
    last_cost_.sim_overhead_ns = timing.overhead_ns;
    last_cost_.weight_walks = 1.0;  // one streaming pass over the weights per step
}

}  // namespace efld::accel
