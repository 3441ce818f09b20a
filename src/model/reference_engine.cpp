#include "model/reference_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "model/tensor.hpp"
#include "obs/profiler.hpp"

namespace efld::model {

namespace {
enum Proj { kWq = 0, kWk, kWv, kWo, kWGate, kWUp, kWDown, kLmHead };

const quant::QuantizedLinear& quant_proj(const QuantizedModelWeights& qw,
                                         std::size_t layer, int which) {
    if (which == kLmHead) return qw.lm_head;
    const QuantizedLayerWeights& lw = qw.layers[layer];
    switch (which) {
        case kWq: return lw.wq;
        case kWk: return lw.wk;
        case kWv: return lw.wv;
        case kWo: return lw.wo;
        case kWGate: return lw.w_gate;
        case kWUp: return lw.w_up;
        default: break;
    }
    return lw.w_down;
}
}  // namespace

ReferenceEngine::ReferenceEngine(const ModelWeights& weights, EngineOptions opts)
    : cfg_(weights.config), opts_(opts), fw_(&weights) {
    init_scratch();
}

ReferenceEngine::ReferenceEngine(const QuantizedModelWeights& weights, EngineOptions opts)
    : cfg_(weights.config), opts_(opts), qw_(&weights) {
    init_scratch();
}

void validate(const EngineOptions& opts) {
    if (opts.max_batch == 0) {
        throw std::invalid_argument("EngineOptions: max_batch must be >= 1");
    }
    if (opts.use_kv8 && (opts.kv_bits < 2 || opts.kv_bits > 8)) {
        throw std::invalid_argument(
            "EngineOptions: kv_bits must be in [2, 8] with use_kv8 (the KV8 "
            "arena stores one byte per code)");
    }
    if (opts.threads > 1) {
        // Determinism is thread-count independent, so modest oversubscription
        // (thread-schedule determinism tests) is fine: a pool wider than the
        // machine parks its idle workers at once rather than spinning. But a
        // private pool far wider than the machine is almost certainly a
        // garbage value (e.g. a byte count). Borrow the global pool (0) for
        // process-wide sizing.
        const std::size_t cap = std::max<std::size_t>(
            4, 4 * static_cast<std::size_t>(std::thread::hardware_concurrency()));
        if (opts.threads > cap) {
            throw std::invalid_argument(
                "EngineOptions: private pool of " + std::to_string(opts.threads) +
                " threads is inconsistent with this machine (cap " +
                std::to_string(cap) + "); use threads = 0 to borrow the global pool");
        }
    }
}

void ReferenceEngine::init_scratch() {
    validate(opts_);
    if (opts_.threads > 1) pool_ = std::make_unique<ThreadPool>(opts_.threads);
    rope_ = RopeTable(cfg_.head_dim(), cfg_.max_seq_len, cfg_.rope_theta);

    const std::size_t mb = opts_.max_batch;
    const kvpool::KvPoolConfig pc =
        kvpool::pool_config(cfg_, mb, opts_.kv_page_tokens, opts_.kv_pool_pages);
    if (opts_.use_kv8) {
        quant_kv_ = std::make_unique<kvpool::PagedQuantizedKvArena>(cfg_, pc, opts_.kv_bits);
        kv_ = quant_kv_.get();
    } else {
        float_kv_ = std::make_unique<kvpool::PagedKvArena>(cfg_, pc);
        kv_ = float_kv_.get();
    }
    for (std::size_t s = 0; s < mb; ++s) (void)kv_->create_sequence();
    if (opts_.kv_page_tokens > 0) prefix_.emplace(kv_->pool());
    pos_.assign(mb, 0);
    slots_ = engine::SlotLedger(mb);
    spans_.reserve(mb);

    row_cap_ = std::max(mb, max_feed_tokens());
    x_.resize(row_cap_ * cfg_.dim);
    xb_.resize(row_cap_ * cfg_.dim);
    q_.resize(row_cap_ * cfg_.dim);
    k_.resize(row_cap_ * cfg_.kv_dim());
    v_.resize(row_cap_ * cfg_.kv_dim());
    att_out_.resize(row_cap_ * cfg_.dim);
    gate_.resize(row_cap_ * cfg_.hidden_dim);
    up_.resize(row_cap_ * cfg_.hidden_dim);
    logits_.resize(mb * cfg_.vocab_size);
    scores_.resize(row_cap_ * cfg_.n_heads * cfg_.max_seq_len);
    if (quant_kv_ != nullptr) {
        kv_page_.resize(mb * cfg_.n_kv_heads * kv_->pool().page_tokens() *
                        cfg_.head_dim());
    }
}

void ReferenceEngine::reset() {
    for (std::size_t s = 0; s < opts_.max_batch; ++s) reset_session(s);
}

std::size_t ReferenceEngine::position(std::size_t slot) const {
    check(slot < opts_.max_batch, "position: slot out of range");
    return pos_[slot];
}

void ReferenceEngine::reset_session(std::size_t slot) {
    check(slot < opts_.max_batch, "reset_session: slot out of range");
    kv_->reset_sequence(slot);  // pages back to the pool
    pos_[slot] = 0;
}

void ReferenceEngine::proj(std::size_t layer, int which, std::size_t nb,
                           std::span<const float> x, std::span<float> y) {
    if (fw_ != nullptr) {
        const LayerWeights* lw = which == kLmHead ? nullptr : &fw_->layers[layer];
        const Matrix* m = nullptr;
        switch (which) {
            case kWq: m = &lw->wq; break;
            case kWk: m = &lw->wk; break;
            case kWv: m = &lw->wv; break;
            case kWo: m = &lw->wo; break;
            case kWGate: m = &lw->w_gate; break;
            case kWUp: m = &lw->w_up; break;
            case kWDown: m = &lw->w_down; break;
            case kLmHead: m = &fw_->lm_head; break;
        }
        // Float path: the golden reference, not the bandwidth fast path — each
        // lane runs the exact single-session kernel (rows still thread-split).
        const std::size_t rows = m->rows(), cols = m->cols();
        if (ThreadPool* p = pool(); p != nullptr) {
            p->parallel_for(rows, [&](std::size_t b, std::size_t e) {
                for (std::size_t lane = 0; lane < nb; ++lane) {
                    gemv_rows(*m, x.subspan(lane * cols, cols),
                              y.subspan(lane * rows, rows), b, e);
                }
            });
        } else {
            for (std::size_t lane = 0; lane < nb; ++lane) {
                gemv(*m, x.subspan(lane * cols, cols), y.subspan(lane * rows, rows));
            }
        }
    } else {
        quant_proj(*qw_, layer, which).gemm(x, nb, y, pool());
    }
}

std::span<const float> ReferenceEngine::attn_norm(std::size_t layer) const {
    return fw_ != nullptr ? std::span<const float>(fw_->layers[layer].attn_norm)
                          : std::span<const float>(qw_->layers[layer].attn_norm);
}

std::span<const float> ReferenceEngine::mlp_norm(std::size_t layer) const {
    return fw_ != nullptr ? std::span<const float>(fw_->layers[layer].mlp_norm)
                          : std::span<const float>(qw_->layers[layer].mlp_norm);
}

std::size_t ReferenceEngine::attention_block(std::size_t layer, std::size_t nr) {
    const obs::ScopedPhase phase(profiler_, obs::Phase::kAttention);
    const std::size_t dim = cfg_.dim;
    const std::size_t kvd = cfg_.kv_dim();
    const std::size_t hd = cfg_.head_dim();
    for (std::size_t r = 0; r < nr; ++r) {
        rmsnorm(std::span<const float>(x_).subspan(r * dim, dim), attn_norm(layer),
                cfg_.rms_eps, std::span<float>(xb_).subspan(r * dim, dim));
    }

    // RoPE at a row's own position, from the table built at construction (no
    // pow/sin/cos on the decode path).
    auto rope = [&](std::span<float> v, std::size_t heads, std::size_t pos) {
        const std::span<const float> cos_row = rope_.cos_row(pos);
        const std::span<const float> sin_row = rope_.sin_row(pos);
        for (std::size_t h = 0; h < heads; ++h) {
            rope_rotate_cached(v.subspan(h * hd, hd), cos_row, sin_row);
        }
    };

    // Every row's K and V land in its slot's history before any row attends,
    // so a row reads the rows before it in its own tile.
    proj(layer, kWk, nr, std::span<const float>(xb_).first(nr * dim),
         std::span<float>(k_).first(nr * kvd));
    proj(layer, kWv, nr, std::span<const float>(xb_).first(nr * dim),
         std::span<float>(v_).first(nr * kvd));
    for (const Span& sp : spans_) {
        for (std::size_t j = 0; j < sp.n; ++j) {
            rope(std::span<float>(k_).subspan((sp.first + j) * kvd, kvd), cfg_.n_kv_heads,
                 pos_[sp.slot] + j);
        }
        const std::span<const float> ks =
            std::span<const float>(k_).subspan(sp.first * kvd, sp.n * kvd);
        const std::span<const float> vs =
            std::span<const float>(v_).subspan(sp.first * kvd, sp.n * kvd);
        if (quant_kv_ != nullptr) {
            quant_kv_->append(sp.slot, layer, ks, vs);
        } else {
            float_kv_->append(sp.slot, layer, ks, vs);
        }
    }

    // In the final layer a prompt row inside a tile has done its job once
    // its KV is stored: only each span's last row goes on to attention, the
    // MLP and the LM head. Those rows move to the front (row b = span b's
    // last row; a move never overwrites a row still to be read), and the
    // rest of the pass runs on them alone.
    const bool final_layer = layer + 1 == cfg_.n_layers;
    const std::size_t nq = final_layer ? spans_.size() : nr;
    if (final_layer) {
        for (std::size_t b = 0; b < spans_.size(); ++b) {
            const std::size_t last = spans_[b].first + spans_[b].n - 1;
            if (last == b) continue;
            std::copy_n(x_.begin() + last * dim, dim, x_.begin() + b * dim);
            std::copy_n(xb_.begin() + last * dim, dim, xb_.begin() + b * dim);
        }
    }
    // Query row j of span b: its row, position and the history it attends.
    auto query = [&](std::size_t b, std::size_t j) {
        const Span& sp = spans_[b];
        const std::size_t pos = pos_[sp.slot] + (final_layer ? sp.n - 1 : j);
        return std::pair{final_layer ? b : sp.first + j, pos};
    };
    proj(layer, kWq, nq, std::span<const float>(xb_).first(nq * dim),
         std::span<float>(q_).first(nq * dim));
    for (std::size_t b = 0; b < spans_.size(); ++b) {
        for (std::size_t j = 0; j < (final_layer ? 1 : spans_[b].n); ++j) {
            const auto [row, pos] = query(b, j);
            rope(std::span<float>(q_).subspan(row * dim, dim), cfg_.n_heads, pos);
        }
    }

    const std::size_t heads_per_kv = cfg_.n_heads / cfg_.n_kv_heads;

    // One task per (span, KV head): the span's query rows and the KV head's
    // cluster of query heads walk its pages together — each key and value
    // page is read (KV8: dequantized) once per task, not once per query head
    // or per row — and every query row attends causally over its own prefix.
    // Parallel tasks touch disjoint scratch slices: a task's scores start at
    // its first query row's n_heads x max_seq_len block.
    const std::size_t page_floats = kv_->pool().page_tokens() * hd;
    auto span_kv_task = [&](std::size_t task) {
        const std::size_t b = task / cfg_.n_kv_heads;
        const std::size_t kvh = task % cfg_.n_kv_heads;
        const Span& sp = spans_[b];
        const std::size_t slot = sp.slot;
        const std::size_t nq = final_layer ? 1 : sp.n;
        const auto [row, pos] = query(b, 0);
        const PagedAttentionShape shape{.rows = nq,
                                        .heads = heads_per_kv,
                                        .head_dim = hd,
                                        .row_stride = dim,
                                        .ctx = pos + 1,
                                        .page_tokens = kv_->pool().page_tokens()};
        const std::size_t at = row * dim + kvh * heads_per_kv * hd;
        const std::span<const float> q = std::span<const float>(q_).subspan(at);
        const std::span<float> out = std::span<float>(att_out_).subspan(at);
        const std::span<float> scores = std::span<float>(scores_).subspan(
            (row * cfg_.n_heads + kvh * nq * heads_per_kv) * cfg_.max_seq_len);
        // Page i of this task's keys or values: the float arena's rows in
        // place, or a KV8 page dequantized into the task's page scratch.
        const auto rows = [&](kvpool::KvPart part) {
            return [&, part](std::size_t i) -> std::span<const float> {
                if (float_kv_ != nullptr) return float_kv_->page(slot, layer, kvh, part, i);
                const kvpool::KvPage page = quant_kv_->page(slot, layer, kvh, part, i);
                float* deq = kv_page_.data() + task * page_floats;
                for (std::size_t t = 0; t < page.rows(); ++t) {
                    quant::kv_dequantize_into(page.row(t), page.params[t], {deq + t * hd, hd});
                }
                return {deq, page.rows() * hd};
            };
        };
        attention_paged(q, out, shape, rows(kvpool::KvPart::kKeys),
                        rows(kvpool::KvPart::kValues), scores);
    };
    const std::size_t n_tasks = spans_.size() * cfg_.n_kv_heads;
    if (ThreadPool* p = pool(); p != nullptr) {
        p->parallel_for(n_tasks, [&](std::size_t b, std::size_t e) {
            for (std::size_t t = b; t < e; ++t) span_kv_task(t);
        });
    } else {
        for (std::size_t t = 0; t < n_tasks; ++t) span_kv_task(t);
    }

    // Output projection + residual.
    proj(layer, kWo, nq, std::span<const float>(att_out_).first(nq * dim),
         std::span<float>(xb_).first(nq * dim));
    for (std::size_t i = 0; i < nq * dim; ++i) x_[i] += xb_[i];
    return nq;
}

void ReferenceEngine::mlp_block(std::size_t layer, std::size_t nr) {
    const std::size_t dim = cfg_.dim;
    const std::size_t hdim = cfg_.hidden_dim;
    for (std::size_t r = 0; r < nr; ++r) {
        rmsnorm(std::span<const float>(x_).subspan(r * dim, dim), mlp_norm(layer),
                cfg_.rms_eps, std::span<float>(xb_).subspan(r * dim, dim));
    }
    proj(layer, kWGate, nr, std::span<const float>(xb_).first(nr * dim),
         std::span<float>(gate_).first(nr * hdim));
    proj(layer, kWUp, nr, std::span<const float>(xb_).first(nr * dim),
         std::span<float>(up_).first(nr * hdim));
    // The gated hidden state overwrites gate_ (elementwise), and the down
    // projection lands in xb_ (its input to gate/up is consumed by then).
    for (std::size_t r = 0; r < nr; ++r) {
        silu_gate(std::span<const float>(gate_).subspan(r * hdim, hdim),
                  std::span<const float>(up_).subspan(r * hdim, hdim),
                  std::span<float>(gate_).subspan(r * hdim, hdim));
    }
    proj(layer, kWDown, nr, std::span<const float>(gate_).first(nr * hdim),
         std::span<float>(xb_).first(nr * dim));
    for (std::size_t i = 0; i < nr * dim; ++i) x_[i] += xb_[i];
}

std::span<const float> ReferenceEngine::step(std::span<const std::int32_t> tokens,
                                             std::span<const std::size_t> slots,
                                             std::span<const std::size_t> rows) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t ns = slots.size();
    check(ns >= 1, "decode_batch: empty batch");
    check(ns <= opts_.max_batch, "decode_batch: batch exceeds max_batch");
    check(rows.empty() || rows.size() == ns, "decode_batch: rows/slots size mismatch");
    std::size_t total = 0;
    std::size_t pages = 0;  // the pool pages the step's appends take
    for (std::size_t b = 0; b < ns; ++b) {
        const std::size_t n = rows.empty() ? 1 : rows[b];
        check(slots[b] < opts_.max_batch, "decode_batch: slot out of range");
        for (std::size_t c = b + 1; c < ns; ++c) {
            check(slots[b] != slots[c], "decode_batch: duplicate slot");
        }
        check(n >= 1 && n <= max_feed_tokens(), "decode_batch: span length out of range");
        check(pos_[slots[b]] + n <= cfg_.max_seq_len,
              "decode_batch: context window exhausted");
        total += n;
        pages += kv_->pages_to_append(slots[b], n);
    }
    check(total == tokens.size(), "decode_batch: rows do not sum to the token count");
    for (const std::int32_t t : tokens) {
        check(t >= 0 && static_cast<std::uint64_t>(t) < cfg_.vocab_size,
              "decode_batch: token out of range");
    }
    // Checked before any slot appends, so a step the pool refuses leaves
    // every slot as it was.
    check(pages <= kv_->pool().pages_free(),
          "decode_batch: KV pool exhausted (admission should have deferred a "
          "sequence)");

    // Spans run in chunks of at most row_cap_ rows (whole spans, so every
    // chunk is an independent forward pass over distinct slots); one chunk
    // unless the step holds more rows than a serving step's budget.
    std::size_t walks = 0;
    std::size_t b = 0;
    std::size_t fed = 0;
    while (b < ns) {
        const std::size_t chunk_begin = b;
        spans_.clear();
        std::size_t nr = 0;
        for (; b < ns; ++b) {
            const std::size_t n = rows.empty() ? 1 : rows[b];
            if (nr + n > row_cap_) break;
            spans_.push_back({.slot = slots[b], .first = nr, .n = n});
            nr += n;
        }
        forward_rows(tokens.subspan(fed, nr), chunk_begin);
        fed += nr;
        // The skinny GEMM decodes the weight codes once per kGemmBatchTile rows.
        walks += (nr + quant::kGemmBatchTile - 1) / quant::kGemmBatchTile;
    }
    // Booked here, so both decode_batch overloads report their own step.
    last_cost_.wall_ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    last_cost_.simulated_ns = 0.0;  // the host IS the wall clock
    last_cost_.weight_walks = static_cast<double>(walks);
    return std::span<const float>(logits_).first(ns * cfg_.vocab_size);
}

void ReferenceEngine::forward_rows(std::span<const std::int32_t> tokens,
                                   std::size_t logits_row) {
    const std::size_t nr = tokens.size();
    // Token embedding lookup, one row per fed token.
    const Matrix& emb = fw_ != nullptr ? fw_->embedding : qw_->embedding;
    for (std::size_t r = 0; r < nr; ++r) {
        const auto row = emb.row(static_cast<std::size_t>(tokens[r]));
        std::copy(row.begin(), row.end(), x_.begin() + r * cfg_.dim);
    }

    // The final layer leaves one row per span: row b, span b's last row.
    std::size_t rows = nr;
    for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
        rows = attention_block(layer, rows);
        mlp_block(layer, rows);
    }
    for (const Span& sp : spans_) pos_[sp.slot] += sp.n;

    // Final norm + LM head for each span's last row only: a prompt row inside
    // a tile feeds the next rows' attention, never the sampler.
    const std::span<const float> fnorm =
        fw_ != nullptr ? std::span<const float>(fw_->final_norm)
                       : std::span<const float>(qw_->final_norm);
    const std::size_t ns = spans_.size();
    for (std::size_t b = 0; b < ns; ++b) {
        rmsnorm(std::span<const float>(x_).subspan(b * cfg_.dim, cfg_.dim), fnorm,
                cfg_.rms_eps, std::span<float>(xb_).subspan(b * cfg_.dim, cfg_.dim));
    }
    proj(0, kLmHead, ns, std::span<const float>(xb_).first(ns * cfg_.dim),
         std::span<float>(logits_).subspan(logits_row * cfg_.vocab_size,
                                           ns * cfg_.vocab_size));
}

std::size_t ReferenceEngine::probe_prefix(std::span<const std::int32_t> prompt,
                                          std::size_t max_cover) const {
    return prefix_ ? prefix_->match(prompt, max_cover).covered : 0;
}

std::size_t ReferenceEngine::adopt_prefix(std::size_t slot,
                                          std::span<const std::int32_t> prompt,
                                          std::size_t max_cover) {
    if (!prefix_) return 0;
    const prefix::PrefixStore::Match m = prefix_->match(prompt, max_cover);
    if (m.covered == 0) return 0;
    kv_->adopt_prefix(slot, m.pages, m.covered);
    pos_[slot] = m.covered;
    return m.covered;
}

std::size_t ReferenceEngine::register_prefix(std::size_t slot,
                                             std::span<const std::int32_t> prompt,
                                             std::size_t max_new_pages) {
    return prefix_ ? prefix_->register_prefix(slot, prompt, max_new_pages) : 0;
}

std::size_t ReferenceEngine::drop_prefix_cache() {
    return prefix_ ? prefix_->drop() : 0;
}

engine::PrefixSharingStats ReferenceEngine::prefix_stats() const {
    if (!prefix_) return {};
    return {.pages_shared = prefix_->pages_held(),
            .cow_copies = static_cast<std::size_t>(kv_->pool().cow_copies())};
}

std::size_t ReferenceEngine::reserve_slot() { return slots_.acquire(); }

void ReferenceEngine::release_slot(std::size_t slot) {
    check(slots_.release(slot), "release_slot: slot out of range or not reserved");
    reset_session(slot);
}

void ReferenceEngine::decode_batch(std::span<const std::int32_t> tokens,
                                   std::span<const std::size_t> slots,
                                   std::span<const std::size_t> rows,
                                   std::span<float> logits_out) {
    check(logits_out.size() >= slots.size() * cfg_.vocab_size,
          "decode_batch: logits_out too small");
    const std::span<const float> logits = step(tokens, slots, rows);
    std::copy(logits.begin(), logits.end(), logits_out.begin());
}

}  // namespace efld::model
