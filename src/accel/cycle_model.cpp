#include "accel/cycle_model.hpp"

#include <algorithm>

#include "common/bitpack.hpp"
#include "common/check.hpp"

namespace efld::accel {

using memsim::Dir;
using memsim::Transaction;

DecodeCycleModel::DecodeCycleModel(const model::ModelConfig& cfg,
                                   const model::QuantScheme& scheme,
                                   const AccelConfig& accel,
                                   const memsim::MemorySystemConfig& mem)
    : cfg_(cfg),
      scheme_(scheme),
      accel_(accel),
      mcu_(cfg, scheme),
      mem_(std::make_unique<memsim::MemorySystem>(mem)) {}

void DecodeCycleModel::dense_op(OpCtx& octx, const std::string& name,
                                const Transaction& txn, std::uint64_t vpu_cycles,
                                double spu_ns) {
    const double mem_ns = txn.bytes > 0 ? mem_->service(txn) : 0.0;
    const double compute_ns = static_cast<double>(vpu_cycles) * accel_.clk_ns();
    // The stream and the VPU pipeline against each other; the op takes the
    // slower of the two plus its FSM start.
    double total = std::max(mem_ns, compute_ns) +
                   accel_.op_start_overhead_clk * accel_.clk_ns();

    double exposed_spu = 0.0;
    if (accel_.fine_grained_fusion) {
        // Misc work hides inside the dense stream; only the excess (if the
        // cover op is too short) is exposed.
        exposed_spu = std::max(0.0, spu_ns - total);
    } else {
        exposed_spu = spu_ns;  // coarse pipeline serializes it
    }
    total += exposed_spu;

    octx.out->mem_bound_ns += std::max(mem_ns, compute_ns);
    octx.out->overhead_ns += accel_.op_start_overhead_clk * accel_.clk_ns();
    octx.out->spu_exposed_ns += exposed_spu;
    octx.out->total_ns += total;
    if (txn.dir == memsim::Dir::kRead) {
        // KV regions are distinguished by name prefix for the byte breakdown.
        if (name.rfind("kv", 0) == 0) {
            octx.out->kv_read_bytes += txn.bytes;
        } else {
            octx.out->weight_bytes += txn.bytes;
        }
    } else {
        octx.out->kv_write_bytes += txn.bytes;
    }
    if (octx.collect) {
        octx.out->ops.push_back({name, mem_ns, compute_ns, spu_ns,
                                 accel_.fine_grained_fusion && exposed_spu == 0.0, total});
    }
}

void DecodeCycleModel::spu_only_op(OpCtx& octx, const std::string& name, double spu_ns) {
    octx.out->spu_exposed_ns += spu_ns;
    octx.out->total_ns += spu_ns;
    if (octx.collect) {
        octx.out->ops.push_back({name, 0.0, 0.0, spu_ns, false, spu_ns});
    }
}

TokenTiming DecodeCycleModel::token_timing(std::size_t ctx, bool collect_ops) {
    return batch_timing(std::span<const std::size_t>(&ctx, 1), collect_ops);
}

TokenTiming DecodeCycleModel::batch_timing(std::span<const std::size_t> ctxs,
                                           bool collect_ops) {
    check(!ctxs.empty(), "DecodeCycleModel: empty batch");
    for (const std::size_t ctx : ctxs) {
        check(ctx < cfg_.max_seq_len, "DecodeCycleModel: context exceeds KV reservation");
    }
    const std::size_t nb = ctxs.size();
    const double nbd = static_cast<double>(nb);

    TokenTiming t;
    OpCtx octx{&t, collect_ops};
    const double clk = accel_.clk_ns();
    const std::size_t hd = cfg_.head_dim();
    const std::size_t heads_per_kv = cfg_.n_heads / cfg_.n_kv_heads;
    const std::uint64_t kv_elem = scheme_.kv_bits / 8;

    // Weight streams cross the bus once per step; the VPU runs one dot per
    // lane per streamed group, so its occupancy scales with the batch (the
    // decode-side mirror of prefill_timing's compute/stream trade).
    auto stream_cycles = [nb](const Transaction& txn) {
        return div_ceil(txn.bytes, kBusBytes) * nb;  // VPU: one word/clk/lane
    };

    // One lane's pass over its KV history for (layer, KV head), keys or
    // values: one codes burst per block-table page when paging is on (each
    // paying its own descriptor/FSM start), one per history otherwise, each
    // followed by its range's scale-zero packs. `cover_ns` is SPU work hidden
    // behind the FIRST burst only — shorter cover ops are the latency cost of
    // paging. Bursts are serviced in issue order (the DDR model is stateful).
    const std::size_t page_tok = accel_.kv_page_tokens;
    auto history_pass = [&](std::size_t layer, std::size_t kvh, bool is_value,
                            std::size_t ctx, double cover_ns) {
        const std::size_t burst = page_tok == 0 ? ctx : page_tok;
        for (std::size_t tb = 0; tb < ctx; tb += burst) {
            const std::size_t te = std::min(ctx, tb + burst);
            const Transaction codes = mcu_.kv_code_read_range(layer, kvh, is_value, tb, te);
            dense_op(octx, is_value ? "kv_av_hist" : "kv_qk_hist", codes,
                     div_ceil(codes.bytes, kBusBytes), tb == 0 ? cover_ns : 0.0);
            const Transaction packs = mcu_.kv_pack_read_range(layer, kvh, is_value, tb, te);
            if (packs.bytes > 0) {
                dense_op(octx, is_value ? "kv_av_packs" : "kv_qk_packs", packs, 0, 0.0);
            }
        }
    };

    // SPU serial costs (cycles) for this geometry; per-lane where the work is
    // per-session. Softmax length tracks each lane's own context.
    const double rms_ns = static_cast<double>(cfg_.dim + 16) * clk;  // bypassed pass 1
    const double rope_head_ns = static_cast<double>(hd) * clk;
    auto softmax_ns = [clk](std::size_t ctx) {
        return static_cast<double>(3 * (ctx + 1) + 16) * clk;
    };
    auto softmax_all_ns = [&] {
        double s = 0.0;
        for (const std::size_t ctx : ctxs) s += softmax_ns(ctx);
        return s;
    };
    const double quant_head_ns = static_cast<double>(2 * hd + 8) * clk;
    const double silu_ns = static_cast<double>(cfg_.hidden_dim) * clk;

    // Embedding row fetch, one per lane.
    for (std::size_t b = 0; b < nb; ++b) {
        dense_op(octx, "embedding", mcu_.embedding_read(0), cfg_.dim / accel_.vpu_lanes,
                 0.0);
    }

    for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
        if (accel_.fine_grained_fusion) {
            // ---- Fig. 3: fine-grained head-wise fused schedule ----
            for (std::size_t h = 0; h < cfg_.n_heads; ++h) {
                const bool new_kv_head = (h % heads_per_kv) == 0;
                const std::size_t kvh = h / heads_per_kv;

                // Q projection for this head; layer-entry RMSNorm and the
                // on-the-fly RoPE (per lane) hide behind it.
                const Transaction q_txn =
                    mcu_.weight_rows_read(layer, MatrixId::kWq, h * hd, (h + 1) * hd);
                dense_op(octx, "q_proj", q_txn, stream_cycles(q_txn),
                         rope_head_ns * nbd + (h == 0 ? rms_ns * nbd : 0.0));

                if (new_kv_head) {
                    const Transaction k_txn = mcu_.weight_rows_read(
                        layer, MatrixId::kWk, kvh * hd, (kvh + 1) * hd);
                    dense_op(octx, "k_proj", k_txn, stream_cycles(k_txn),
                             (rope_head_ns + quant_head_ns) * nbd);
                }

                // Dot against each lane's rotated-key history (+ packs every
                // 16 tokens) — KV traffic is per-session, per page.
                for (const std::size_t ctx : ctxs) history_pass(layer, kvh, false, ctx, 0.0);

                if (new_kv_head) {
                    // V projection; every lane's softmax and value
                    // quantization hide behind it (§V.A).
                    const Transaction v_txn = mcu_.weight_rows_read(
                        layer, MatrixId::kWv, kvh * hd, (kvh + 1) * hd);
                    dense_op(octx, "v_proj", v_txn, stream_cycles(v_txn),
                             softmax_all_ns() + quant_head_ns * nbd);
                }

                // Weighted value accumulation over each lane's history. For
                // GQA heads that reuse a cached V projection, a lane's
                // softmax hides behind its own history stream instead — or is
                // exposed when that lane has no history yet.
                for (const std::size_t ctx : ctxs) {
                    if (ctx > 0) {
                        history_pass(layer, kvh, true, ctx,
                                     new_kv_head ? 0.0 : softmax_ns(ctx));
                    } else if (!new_kv_head) {
                        spu_only_op(octx, "softmax_exposed", softmax_ns(ctx));
                    }
                }

                t.overhead_ns += accel_.head_overhead_clk * clk;
                t.total_ns += accel_.head_overhead_clk * clk;
            }
        } else {
            // ---- DFX-style coarse schedule: full projections, then
            // attention, misc ops exposed between stages (per lane) ----
            spu_only_op(octx, "rmsnorm",
                        (rms_ns + static_cast<double>(cfg_.dim) * clk) * nbd);
            const Transaction q_txn = mcu_.weight_stream_read(layer, MatrixId::kWq);
            dense_op(octx, "q_proj", q_txn, stream_cycles(q_txn), 0.0);
            const Transaction k_txn = mcu_.weight_stream_read(layer, MatrixId::kWk);
            dense_op(octx, "k_proj", k_txn, stream_cycles(k_txn), 0.0);
            const Transaction v_txn = mcu_.weight_stream_read(layer, MatrixId::kWv);
            dense_op(octx, "v_proj", v_txn, stream_cycles(v_txn), 0.0);
            spu_only_op(octx, "rope",
                        static_cast<double>(cfg_.n_heads + cfg_.n_kv_heads) *
                            rope_head_ns * nbd);
            spu_only_op(octx, "kv_quant",
                        static_cast<double>(2 * cfg_.n_kv_heads) * quant_head_ns * nbd);
            for (std::size_t h = 0; h < cfg_.n_heads; ++h) {
                const std::size_t kvh = h / heads_per_kv;
                for (const std::size_t ctx : ctxs) history_pass(layer, kvh, false, ctx, 0.0);
                spu_only_op(octx, "softmax", softmax_all_ns());
                for (const std::size_t ctx : ctxs) history_pass(layer, kvh, true, ctx, 0.0);
            }
        }

        // KV writeback for each lane's current token (codes now; packs when
        // the Fig. 4B FIFO fills at token % 16 == 15).
        for (std::size_t kvh = 0; kvh < cfg_.n_kv_heads; ++kvh) {
            for (const bool is_value : {false, true}) {
                for (std::size_t b = 0; b < nb; ++b) {
                    dense_op(octx, "kv_write",
                             mcu_.kv_code_write(layer, kvh, is_value, ctxs[b]),
                             div_ceil(hd * kv_elem, kBusBytes), 0.0);
                    if (mcu_.pack_write_due(ctxs[b])) {
                        dense_op(octx, "kv_pack_write",
                                 mcu_.kv_pack_write(layer, kvh, is_value, ctxs[b]), 1,
                                 0.0);
                    }
                }
            }
        }

        // Output projection (residual add + square-sum fused behind it).
        const Transaction o_txn = mcu_.weight_stream_read(layer, MatrixId::kWo);
        dense_op(octx, "o_proj", o_txn, stream_cycles(o_txn), 0.0);

        // MLP: gate, up (SiLU + act-mul hidden behind up), down.
        const Transaction g_txn = mcu_.weight_stream_read(layer, MatrixId::kWGate);
        dense_op(octx, "gate_proj", g_txn, stream_cycles(g_txn),
                 accel_.fine_grained_fusion ? rms_ns * nbd : 0.0);
        if (!accel_.fine_grained_fusion) {
            spu_only_op(octx, "rmsnorm2",
                        (rms_ns + static_cast<double>(cfg_.dim) * clk) * nbd);
        }
        const Transaction u_txn = mcu_.weight_stream_read(layer, MatrixId::kWUp);
        dense_op(octx, "up_proj", u_txn, stream_cycles(u_txn),
                 accel_.fine_grained_fusion ? silu_ns * nbd : 0.0);
        if (!accel_.fine_grained_fusion) spu_only_op(octx, "silu", silu_ns * nbd);
        const Transaction d_txn = mcu_.weight_stream_read(layer, MatrixId::kWDown);
        dense_op(octx, "down_proj", d_txn, stream_cycles(d_txn), 0.0);

        // Norm vectors stream in with the layer.
        dense_op(octx, "norms", mcu_.norms_read(layer), 0, 0.0);

        t.overhead_ns += accel_.layer_overhead_clk * clk;
        t.total_ns += accel_.layer_overhead_clk * clk;
    }

    // LM head (final RMSNorm hides behind it in the fused schedule).
    const Transaction head_txn = mcu_.lm_head_read();
    dense_op(octx, "lm_head", head_txn, stream_cycles(head_txn),
             accel_.fine_grained_fusion ? rms_ns * nbd : 0.0);
    if (!accel_.fine_grained_fusion) {
        spu_only_op(octx, "final_rmsnorm",
                    (rms_ns + static_cast<double>(cfg_.dim) * clk) * nbd);
    }

    t.overhead_ns += accel_.token_overhead_clk * clk;
    t.total_ns += accel_.token_overhead_clk * clk;
    return t;
}

GenerationTiming DecodeCycleModel::generate_timing(std::size_t prompt_len,
                                                   std::size_t n_tokens) {
    GenerationTiming g;
    g.tokens = n_tokens;
    for (std::size_t i = 0; i < n_tokens; ++i) {
        g.total_ns += token_timing(prompt_len + i).total_ns;
    }
    return g;
}

PrefillTiming DecodeCycleModel::prefill_timing(std::size_t prompt_len,
                                               std::size_t tile_tokens) {
    check(prompt_len > 0 && prompt_len <= cfg_.max_seq_len,
          "prefill_timing: bad prompt length");
    check(tile_tokens > 0, "prefill_timing: tile must be positive");
    PrefillTiming p;
    p.prompt_tokens = prompt_len;
    const double clk = accel_.clk_ns();
    const std::uint64_t kv_elem = scheme_.kv_bits / 8;

    // Per-tile projection cost: weights stream once (memory side), the VPU
    // runs `tile` dots per group (compute side). Attention and KV traffic
    // accumulate per token with its own growing history.
    const MatrixId mats[] = {MatrixId::kWq, MatrixId::kWk, MatrixId::kWv,
                             MatrixId::kWo, MatrixId::kWGate, MatrixId::kWUp,
                             MatrixId::kWDown};

    std::size_t done = 0;
    while (done < prompt_len) {
        const std::size_t tile = std::min(tile_tokens, prompt_len - done);
        for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
            for (const MatrixId m : mats) {
                const Transaction txn = mcu_.weight_stream_read(layer, m);
                const double mem_ns = mem_->service(txn);
                const double compute_ns =
                    static_cast<double>(div_ceil(txn.bytes, kBusBytes)) *
                    static_cast<double>(tile) * clk;
                p.mem_ns += mem_ns;
                p.compute_ns += compute_ns;
                p.total_ns += std::max(mem_ns, compute_ns) +
                              accel_.op_start_overhead_clk * clk;
                p.weight_bytes += txn.bytes;
            }
            // Attention over the growing history + KV writeback, per token.
            for (std::size_t t = done; t < done + tile; ++t) {
                if (t > 0) {
                    for (const bool is_value : {false, true}) {
                        // One pass over the whole history per head set; heads
                        // share the same stream shape so scale by head count.
                        const Transaction kv = mcu_.kv_code_read(0, 0, is_value, t);
                        const double per_head_ns = mem_->service(kv);
                        const double heads =
                            static_cast<double>(cfg_.n_heads);
                        p.mem_ns += per_head_ns * heads;
                        p.total_ns += per_head_ns * heads;
                    }
                }
                const double kv_write_ns =
                    mem_->service({0, 2 * cfg_.kv_dim() * kv_elem, Dir::kWrite});
                p.mem_ns += kv_write_ns;
                p.total_ns += kv_write_ns;
            }
            p.total_ns += accel_.layer_overhead_clk * clk;
        }
        done += tile;
    }

    // LM head runs once, for the last prompt position.
    const Transaction head = mcu_.lm_head_read();
    const double head_ns = mem_->service(head);
    p.mem_ns += head_ns;
    p.total_ns += head_ns + accel_.token_overhead_clk * clk;
    p.weight_bytes += head.bytes;
    return p;
}

double DecodeCycleModel::matrix_engine_prefill_ns(std::size_t prompt_len,
                                                  double macs_per_cycle) {
    check(macs_per_cycle > 0, "matrix_engine_prefill_ns: bad MAC count");
    // Weights cross the bus once; the array reuses them across all prompt
    // tokens. FLOP count: 2 * params * tokens MACs for projections.
    const double weight_bytes =
        static_cast<double>(cfg_.layer_params() + cfg_.lm_head_params()) *
        scheme_.bytes_per_weight();
    const double mem_ns = weight_bytes / mem_->peak_bytes_per_s() * 1e9;
    const double macs = static_cast<double>(cfg_.layer_params()) *
                        static_cast<double>(prompt_len);
    const double compute_ns = macs / macs_per_cycle * accel_.clk_ns();
    return std::max(mem_ns, compute_ns);
}

double DecodeCycleModel::bandwidth_utilization(std::size_t ctx) {
    // Paper metric: measured token/s over "model weight transfers possible
    // per second" with weights counted at their nominal quantized width
    // (projection + lm_head params at weight_bits, no scale/zero overhead).
    const double weight_bytes =
        static_cast<double>(cfg_.layer_params() + cfg_.lm_head_params()) *
        (static_cast<double>(scheme_.weight_bits) / 8.0);
    const double theoretical = mem_->peak_bytes_per_s() / weight_bytes;
    const TokenTiming t = token_timing(ctx);
    return t.tokens_per_s() / theoretical;
}

}  // namespace efld::accel
