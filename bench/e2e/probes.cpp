#include "probes.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/cycle_model.hpp"
#include "accel/mcu.hpp"
#include "accel/packed_model.hpp"
#include "cluster/wire.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "memsim/memory_system.hpp"
#include "model/kernels.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "runtime/memory_planner.hpp"

namespace efld::bench {

namespace {

constexpr std::size_t kOpReps = 30;

std::vector<float> random_vec(Xoshiro256& rng, std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.gaussian());
    return v;
}

std::uint64_t resident_bytes(const quant::QuantizedLinear& w) {
    // 1 B per code, fp16 scale and 1 B zero per group: what the host walks.
    return w.codes().size() + 2 * w.scales().size() + w.zeros().size();
}

// Median decode_batch ms over `calls` steps after filling `batch` slots to
// ctx0 tokens (ctx0..ctx0+calls stays inside the context window).
double step_ms(SpanLog& spans, const char* name, const model::QuantizedModelWeights& qw,
               std::size_t threads, std::size_t batch) {
    const std::size_t max_seq = qw.config.max_seq_len;
    const std::size_t ctx0 = std::min<std::size_t>(64, max_seq / 2);
    const std::size_t calls = std::min<std::size_t>(30, max_seq - ctx0 - 1);
    model::EngineOptions eo;
    eo.use_kv8 = true;
    eo.threads = threads;
    eo.max_batch = batch;
    model::ReferenceEngine eng(qw, eo);
    const std::vector<std::int32_t> tokens(batch, model::ByteTokenizer::kByteBase);
    std::vector<std::size_t> slots(batch);
    std::iota(slots.begin(), slots.end(), std::size_t{0});
    for (std::size_t i = 0; i < ctx0; ++i) (void)eng.decode_batch(tokens, slots);
    const Samples us =
        time_us(spans, name, calls, 1, [&] { (void)eng.decode_batch(tokens, slots); });
    return us.median() / 1e3;
}

}  // namespace

void probe_model(Report& rep, SpanLog& spans, const model::QuantizedModelWeights& qw,
                 std::size_t threads) {
    const model::ModelConfig& cfg = qw.config;
    const std::unique_ptr<ThreadPool> owned =
        threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
    ThreadPool* pool = owned.get();
    Xoshiro256 rng(7);
    const std::vector<float> x = random_vec(rng, cfg.dim);
    const std::vector<float> h = random_vec(rng, cfg.hidden_dim);
    std::vector<float> q(cfg.dim), k(cfg.kv_dim()), v(cfg.kv_dim()), o(cfg.dim);
    std::vector<float> gate(cfg.hidden_dim), up(cfg.hidden_dim), down(cfg.dim);
    std::vector<float> logits(cfg.vocab_size);

    const double qkv = time_us(spans, "model.qkv", kOpReps, 1, [&] {
        for (const auto& l : qw.layers) {
            l.wq.gemv(x, q, pool);
            l.wk.gemv(x, k, pool);
            l.wv.gemv(x, v, pool);
        }
    }).median();
    const double o_us = time_us(spans, "model.o", kOpReps, 1, [&] {
        for (const auto& l : qw.layers) l.wo.gemv(x, o, pool);
    }).median();
    const double ffn = time_us(spans, "model.ffn", kOpReps, 1, [&] {
        for (const auto& l : qw.layers) {
            l.w_gate.gemv(x, gate, pool);
            l.w_up.gemv(x, up, pool);
            l.w_down.gemv(h, down, pool);
        }
    }).median();
    const double head = time_us(spans, "model.lm_head", kOpReps, 1, [&] {
        qw.lm_head.gemv(x, logits, pool);
    }).median();

    const std::size_t hd = cfg.head_dim();
    const model::RopeTable rope(hd, 65, cfg.rope_theta);
    std::vector<float> xb(cfg.dim);
    std::vector<float> qh = random_vec(rng, cfg.dim);
    std::vector<float> kh = random_vec(rng, cfg.kv_dim());
    const double norm_rope = time_us(spans, "model.norm_rope", kOpReps, 1, [&] {
        for (const auto& l : qw.layers) {
            model::rmsnorm(x, l.attn_norm, cfg.rms_eps, xb);
            for (std::size_t i = 0; i < cfg.n_heads; ++i) {
                model::rope_rotate_cached(std::span<float>(qh).subspan(i * hd, hd),
                                          rope.cos_row(64), rope.sin_row(64));
            }
            for (std::size_t i = 0; i < cfg.n_kv_heads; ++i) {
                model::rope_rotate_cached(std::span<float>(kh).subspan(i * hd, hd),
                                          rope.cos_row(64), rope.sin_row(64));
            }
            model::rmsnorm(x, l.mlp_norm, cfg.rms_eps, xb);
        }
        model::rmsnorm(x, qw.final_norm, cfg.rms_eps, xb);
    }).median();

    qw.lm_head.gemv(x, logits, pool);  // real logits for the sampler
    model::Sampler sampler(model::SamplerConfig{});
    const double sampling = time_us(spans, "model.sampling", kOpReps, 10, [&] {
        (void)sampler.sample(logits);
    }).median();

    // One token's attention over a 512-token float history, all heads of
    // all layers, partitioned over the pool by head as the engine does.
    constexpr std::size_t kCtx = 512;
    const std::size_t group = cfg.n_heads / cfg.n_kv_heads;
    const std::vector<float> keys = random_vec(rng, cfg.n_kv_heads * kCtx * hd);
    const std::vector<float> vals = random_vec(rng, cfg.n_kv_heads * kCtx * hd);
    std::vector<float> scores(cfg.n_heads * kCtx), att(cfg.dim);
    const auto heads = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const std::size_t kv = (i / group) * kCtx * hd;
            model::attention_head(std::span<const float>(qh).subspan(i * hd, hd),
                                  std::span<const float>(keys).subspan(kv, kCtx * hd),
                                  std::span<const float>(vals).subspan(kv, kCtx * hd), kCtx,
                                  hd, std::span<float>(att).subspan(i * hd, hd),
                                  std::span<float>(scores).subspan(i * kCtx, kCtx));
        }
    };
    const double attn = time_us(spans, "model.attn_c512", kOpReps, 1, [&] {
        for (std::size_t l = 0; l < cfg.n_layers; ++l) {
            if (pool != nullptr) {
                pool->parallel_for(cfg.n_heads, heads);
            } else {
                heads(0, cfg.n_heads);
            }
        }
    }).median();

    rep.layer("model.op_us.qkv", qkv, "us", kOpReps);
    rep.layer("model.op_us.o", o_us, "us", kOpReps);
    rep.layer("model.op_us.ffn", ffn, "us", kOpReps);
    rep.layer("model.op_us.lm_head", head, "us", kOpReps);
    rep.layer("model.op_us.norm_rope", norm_rope, "us", kOpReps);
    rep.layer("model.op_us.sampling", sampling, "us", kOpReps);
    rep.layer("model.op_us.attn_c512", attn, "us", kOpReps);

    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t wide = std::min<std::size_t>(4, hw);
    const double b1 = step_ms(spans, "model.step.b1", qw, threads, 1);
    const double b8 = step_ms(spans, "model.step.b8", qw, threads, 8);
    const double b1_1t = threads == 1 ? b1 : step_ms(spans, "model.step.b1_1t", qw, 1, 1);
    const double b1_wide =
        threads == wide ? b1 : step_ms(spans, "model.step.b1_wide", qw, wide, 1);
    rep.layer("model.step_ms.b1", b1, "ms");
    rep.layer("model.step_ms.b8", b8, "ms");
    rep.layer("model.op_coverage",
              (qkv + o_us + ffn + head + norm_rope + sampling) / (b1 * 1e3), "ratio");
    rep.layer("model.thread_speedup", b1_1t / b1_wide, "ratio");

    std::uint64_t bytes = resident_bytes(qw.lm_head);
    for (const auto& l : qw.layers) {
        for (const auto* w : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            bytes += resident_bytes(*w);
        }
    }
    rep.layer("quant.weight_gbps",
              static_cast<double>(bytes) / ((qkv + o_us + ffn + head) * 1e3), "GB/s");
}

void probe_cycle_model(Report& rep, SpanLog& spans, const model::ModelConfig& cfg) {
    const model::QuantScheme scheme = model::QuantScheme::w4a16_kv8();
    const std::size_t ctx = std::min<std::size_t>(512, cfg.max_seq_len - 1);
    accel::DecodeCycleModel m(cfg, scheme, accel::AccelConfig{});
    const std::uint64_t t0 = now_ns();
    const accel::TokenTiming t = m.token_timing(ctx, /*collect_ops=*/true);
    spans.slice("accel.token_timing", 4, t0, now_ns());

    // Cycle-model op names grouped into the host engine's op vocabulary.
    static const std::map<std::string, std::string> kGroup = {
        {"q_proj", "qkv"},          {"k_proj", "qkv"},         {"v_proj", "qkv"},
        {"o_proj", "o"},            {"gate_proj", "ffn"},      {"up_proj", "ffn"},
        {"down_proj", "ffn"},       {"lm_head", "lm_head"},    {"kv_qk_hist", "attention"},
        {"kv_qk_packs", "attention"}, {"kv_av_hist", "attention"},
        {"kv_av_packs", "attention"}, {"softmax", "attention"},
        {"softmax_exposed", "attention"}, {"kv_write", "kv_write"},
        {"kv_pack_write", "kv_write"}};
    std::map<std::string, double> ns = {{"qkv", 0.0},     {"o", 0.0},
                                        {"ffn", 0.0},     {"lm_head", 0.0},
                                        {"attention", 0.0}, {"kv_write", 0.0}};
    for (const accel::OpTiming& op : t.ops) {
        const auto it = kGroup.find(op.name);
        if (it != kGroup.end()) ns[it->second] += op.total_ns;
    }
    for (const auto& [group, v] : ns) rep.layer("accel.op_sim_us." + group, v / 1e3, "us");
    rep.layer("accel.mem_bound_frac", t.mem_bound_ns / t.total_ns, "ratio");
    rep.layer("accel.overhead_frac", t.overhead_ns / t.total_ns, "ratio");
    rep.layer("accel.achieved_gbps",
              static_cast<double>(t.weight_bytes + t.kv_read_bytes + t.kv_write_bytes) /
                  t.total_ns,
              "GB/s");

    accel::DecodeCycleModel sweep(cfg, scheme, accel::AccelConfig{});
    std::size_t points = 0;
    for (std::size_t c = 32; c < cfg.max_seq_len; c += 64, ++points) {
        (void)sweep.token_timing(c);
    }
    const memsim::BandwidthStats& bw = sweep.memory().lifetime_stats();
    rep.layer("memsim.row_hit_frac",
              static_cast<double>(bw.row_hits) /
                  static_cast<double>(std::max<std::uint64_t>(1, bw.row_hits + bw.row_misses)),
              "ratio", points);
    rep.layer("memsim.achieved_gbps", bw.achieved_bw() / 1e9, "GB/s", points);

    // Host cost of the DDR model: one full weight walk, one service() call
    // per projection stream.
    const accel::Mcu mcu(cfg, scheme);
    memsim::TransactionStream walk;
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        for (const auto id : {accel::MatrixId::kWq, accel::MatrixId::kWk, accel::MatrixId::kWv,
                              accel::MatrixId::kWo, accel::MatrixId::kWGate,
                              accel::MatrixId::kWUp, accel::MatrixId::kWDown}) {
            walk.push_back(mcu.weight_stream_read(l, id));
        }
    }
    walk.push_back(mcu.lm_head_read());
    memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
    const Samples us = time_us(spans, "memsim.weight_walk", 5, 1, [&] {
        for (const memsim::Transaction& txn : walk) (void)mem.service(txn);
    });
    rep.layer("memsim.service_ns", us.median() * 1e3 / static_cast<double>(walk.size()),
              "ns", 5);

    const runtime::MemoryPlan plan = runtime::MemoryPlanner::plan_kv260(cfg, scheme);
    constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
    rep.layer("runtime.weight_gib", static_cast<double>(plan.weight_bytes) / kGiB, "GiB");
    rep.layer("runtime.kv_gib", static_cast<double>(plan.kv_bytes) / kGiB, "GiB");
}

void probe_pricing(Report& rep, SpanLog& spans, const model::ModelConfig& cfg) {
    const std::size_t c = std::min<std::size_t>(512, cfg.max_seq_len - 1);
    const std::vector<std::size_t> lanes = {c / 4, c / 2, 3 * c / 4, c};
    accel::DecodeCycleModel m(cfg, model::QuantScheme::w4a16_kv8(), accel::AccelConfig{});
    double sim_ns = 0.0;
    const Samples us = time_us(spans, "accel.batch_timing", 20, 1,
                               [&] { sim_ns = m.batch_timing(lanes).total_ns; });
    rep.layer("accel.pricing_us", us.median(), "us", us.size());
    rep.layer("accel.sim_step_us.b4", sim_ns / 1e3, "us");
}

void probe_twin(Report& rep, SpanLog& spans, const model::QuantizedModelWeights& qw) {
    const accel::PackedModel pm = accel::PackedModel::build(qw);
    accel::AcceleratorOptions ao;
    ao.max_batch = 4;
    accel::Accelerator acc(pm, ao);
    std::vector<float> logits(4 * qw.config.vocab_size);
    const std::vector<std::int32_t> tokens(4, model::ByteTokenizer::kByteBase);
    const std::vector<std::size_t> slots = {0, 1, 2, 3};
    const Samples b1 = time_us(spans, "accel.twin_step.b1", 5, 1, [&] {
        acc.decode_batch(std::span(tokens).first(1), std::span(slots).first(1), logits);
    });
    const Samples b4 = time_us(spans, "accel.twin_step.b4", 3, 1,
                               [&] { acc.decode_batch(tokens, slots, logits); });
    rep.layer("accel.twin_step_ms.b1", b1.median() / 1e3, "ms", b1.size());
    rep.layer("accel.twin_step_ms.b4", b4.median() / 1e3, "ms", b4.size());
}

void probe_wire(Report& rep, SpanLog& spans) {
    namespace wire = cluster::wire;
    wire::WireRequest req;
    req.prompt = std::string(20, 'p');
    req.max_new_tokens = 12;
    wire::WireResponse resp;
    resp.status = wire::Status::kOk;
    resp.id = 1;
    resp.tokens.assign(12, 100);
    resp.text = std::string(12, 't');
    const Samples us = time_us(spans, "cluster.wire_codec", 20, 100, [&] {
        (void)wire::decode_request(wire::encode_request(req));
        (void)wire::decode_response(wire::encode_response(resp));
    });
    rep.layer("cluster.wire_codec_us", us.median(), "us", us.size());
}

void probe_prefix(Report& rep, SpanLog& spans, cluster::ClusterRouter& router,
                  std::span<const std::int32_t> prompt) {
    const serve::ServeEngine& shard = router.shard(0);
    const Samples us = time_us(spans, "prefix.probe", 20, 100,
                               [&] { (void)shard.probe_prefix(prompt); });
    rep.layer("prefix.probe_us", us.median(), "us", us.size());
}

}  // namespace efld::bench
