// Host decode throughput: the software twin's fused fast path, single- and
// multi-threaded, against the host's own read bandwidth and the simulated
// KV260 decode rate from the cycle model.
//
// The paper's thesis is that decode = memory streaming; the host engine only
// serves as a credible baseline for the cycle model if its own hot path is
// not dominated by allocation and recomputation. This bench quantifies that:
//
//   fused 1t: fused dequantize×dot fast path, allocation-free decode loop
//   fused Nt: same with GEMV rows / attention heads across a worker pool
//
// Each row is the median of kReps runs (the configurations take turns, one
// run each per round, so drift on a shared host hits every row alike), with
// the interquartile range beside it and the row's speedup over the 1-thread
// median: micro's runs last a few ms, and two single 1-thread runs on one
// 4-core host read 2567 and 3570 tok/s.
//
// It is also a parity gate: the thread contract makes every row's logits
// bit-identical, so a run whose hash over every logit's bits differs from the
// 1-thread row's fails the run (exit 1).
//
// Each row also reports its weight walk rate — weight bytes per token (the
// stored code bytes, half a byte per W4 code, plus the fp16 scale and the
// zero per group) × token/s — and
// host_bw_util, that rate over a STREAM-style read peak measured at the same
// thread count over a buffer the size of those weight bytes. The walk rate
// counts every decode op's time against the weights alone, so it is a floor
// on what the GEMV kernel itself streams.
//
// `--json [path]` additionally emits a BENCH_host_decode.json perf record so
// the throughput trajectory is trackable across PRs.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/cycle_model.hpp"
#include "common/threadpool.hpp"
#include "model/reference_engine.hpp"
#include "model/weights.hpp"

using namespace efld;

namespace {

constexpr int kReps = 5;

struct RunResult {
    double tokens_per_s = 0.0;
    std::uint64_t logit_hash = 0;  // FNV-1a over every decode step's logit bits
};

RunResult run_decode(const model::QuantizedModelWeights& qw, model::EngineOptions opts,
                     std::size_t prefill_tokens, std::size_t decode_tokens) {
    model::ReferenceEngine eng(qw, opts);
    const std::size_t slot = eng.reserve_slot();
    std::int32_t token = 1;
    const auto decode = [&] {
        return eng.decode_batch(std::span(&token, 1), std::span(&slot, 1));
    };
    const auto vocab = static_cast<std::int32_t>(qw.config.vocab_size);
    for (std::size_t i = 0; i < prefill_tokens; ++i) {
        (void)decode();
        token = static_cast<std::int32_t>((token * 5 + 3) % vocab);
    }

    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < decode_tokens; ++i) {
        const std::span<const float> logits = decode();
        // Greedy next token keeps the run deterministic while exercising the
        // real logits the way a sampler would.
        token = static_cast<std::int32_t>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        for (const float v : logits) {
            hash = (hash ^ std::bit_cast<std::uint32_t>(v)) * 0x100000001b3ull;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    return RunResult{static_cast<double>(decode_tokens) / s, hash};
}

// Bytes of stored weights one decode token walks: every projection and the
// LM head, its stored code bytes (two W4 codes per byte) plus the fp16 scale
// and the zero byte per group.
std::uint64_t walk_bytes(const model::QuantizedModelWeights& qw) {
    const auto bytes = [](const quant::QuantizedLinear& m) {
        return static_cast<std::uint64_t>(m.codes().size() + m.scales().size() * sizeof(Fp16) +
                                          m.zeros().size());
    };
    std::uint64_t total = bytes(qw.lm_head);
    for (const auto& l : qw.layers) {
        for (const auto* w : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            total += bytes(*w);
        }
    }
    return total;
}

// STREAM-style read peak: `threads` workers sum a `bytes`-sized buffer (each
// timed pass sweeps it often enough to read >= 64 MiB); median of 15 passes.
double read_peak_gbps(std::uint64_t bytes, std::size_t threads) {
    std::vector<std::uint64_t> buf(std::max<std::uint64_t>(bytes / 8, 1), 1);
    const std::size_t sweeps = std::max<std::uint64_t>(1, (64ull << 20) / (buf.size() * 8));
    ThreadPool pool(threads);
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> secs;
    for (int rep = 0; rep < 15; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t k = 0; k < sweeps; ++k) {
            pool.parallel_for(buf.size(), [&](std::size_t b, std::size_t e) {
                std::uint64_t sum = 0;
                for (std::size_t i = b; i < e; ++i) sum += buf[i];
                sink.fetch_add(sum, std::memory_order_relaxed);
            });
        }
        secs.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    std::nth_element(secs.begin(), secs.begin() + secs.size() / 2, secs.end());
    return static_cast<double>(buf.size() * 8 * sweeps) / secs[secs.size() / 2] / 1e9;
}

// Median and interquartile range (linear interpolation between order
// statistics).
struct Spread {
    double median = 0.0, iqr = 0.0;
};
Spread spread(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto q = [&](double f) {
        const double x = f * static_cast<double>(v.size() - 1);
        const auto i = static_cast<std::size_t>(x);
        const double frac = x - static_cast<double>(i);
        return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
    };
    return Spread{q(0.5), q(0.75) - q(0.25)};
}

}  // namespace

int main(int argc, char** argv) {
    std::string model_name = "micro";
    std::size_t decode_tokens = 32;
    std::size_t prefill_tokens = 8;
    bool emit_json = false;
    std::string json_path = "BENCH_host_decode.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            decode_tokens = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--model micro|tiny] [--tokens N] [--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }

    const model::ModelConfig cfg =
        model_name == "tiny" ? model::ModelConfig::tiny_512() : model::ModelConfig::micro_256();
    // The engine refuses to decode past the context window; keep the run
    // inside it rather than aborting mid-benchmark.
    if (prefill_tokens + decode_tokens > cfg.max_seq_len) {
        decode_tokens = cfg.max_seq_len - prefill_tokens;
        std::fprintf(stderr, "note: clamped --tokens to %zu (max_seq_len %llu)\n",
                     decode_tokens,
                     static_cast<unsigned long long>(cfg.max_seq_len));
    }
    std::printf("=== Host decode throughput: %s, W4 group-128, KV8 ===\n\n",
                cfg.name.c_str());
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) {
        std::printf("(note: only %u hardware thread(s) available — threaded rows "
                    "measure pool overhead, not scaling)\n\n",
                    hw);
    }

    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    const model::EngineOptions fused1{.use_kv8 = true, .threads = 1};

    const std::uint64_t weight_bytes = walk_bytes(qw);
    std::vector<std::pair<std::size_t, double>> peaks;  // (threads, GB/s)
    for (const std::size_t t : {1u, 2u, 4u}) peaks.emplace_back(t, read_peak_gbps(weight_bytes, t));
    std::printf("weight walk: %.2f MB/token; host read peak over that many bytes:",
                static_cast<double>(weight_bytes) / 1e6);
    for (const auto& [t, gbps] : peaks) std::printf(" %zut %.2f GB/s", t, gbps);
    std::printf("\n\n");

    struct Row {
        std::string label, key;
        model::EngineOptions opts;
        std::vector<RunResult> runs{};
        Spread tok_s{};
        double speedup = 0.0, walk_gbps = 0.0, util = 0.0;
    };
    std::vector<Row> rows;
    rows.push_back({"fused, 1 thread", "fused_1t", fused1});
    for (const std::size_t t : {2u, 4u}) {
        model::EngineOptions o = fused1;
        o.threads = t;
        rows.push_back(
            {"fused, " + std::to_string(t) + " threads", "fused_" + std::to_string(t) + "t", o});
    }

    for (int rep = 0; rep < kReps; ++rep) {
        for (Row& row : rows) {
            row.runs.push_back(run_decode(qw, row.opts, prefill_tokens, decode_tokens));
        }
    }
    for (Row& row : rows) {
        std::vector<double> tok_s;
        for (const RunResult& r : row.runs) tok_s.push_back(r.tokens_per_s);
        row.tok_s = spread(tok_s);
        row.speedup = row.tok_s.median / rows[0].tok_s.median;
        row.walk_gbps = static_cast<double>(weight_bytes) * row.tok_s.median / 1e9;
        double peak = 0.0;
        for (const auto& [t, gbps] : peaks) peak = t == row.opts.threads ? gbps : peak;
        row.util = row.walk_gbps / peak;
    }

    std::printf("median of %d runs per row\n", kReps);
    std::printf("%-26s | %10s | %8s | %8s | %9s | %12s\n", "configuration", "token/s", "IQR",
                "vs 1t", "walk GB/s", "host_bw_util");
    std::printf("--------------------------------------------------------------------------"
                "----------\n");
    bool parity = true;
    for (const Row& row : rows) {
        std::printf("%-26s | %10.2f | %8.2f | %7.2fx | %9.2f | %12.3f\n", row.label.c_str(),
                    row.tok_s.median, row.tok_s.iqr, row.speedup, row.walk_gbps, row.util);
        for (const RunResult& r : row.runs) {
            if (r.logit_hash != rows[0].runs[0].logit_hash) {
                std::printf("  FAIL: logits diverged from the 1-thread row's\n");
                parity = false;
                break;
            }
        }
    }
    std::printf("(walk GB/s counts the stored bytes: 0.5 B per W4 code)\n");

    // The simulated KV260 rate the host baseline is measured against.
    accel::DecodeCycleModel sim(cfg, model::QuantScheme::w4a16_kv8(), accel::AccelConfig{});
    const double sim_tok_s =
        sim.token_timing(prefill_tokens + decode_tokens / 2).tokens_per_s();
    double best_host = 0.0;
    for (const Row& row : rows) best_host = std::max(best_host, row.tok_s.median);
    std::printf("\nsimulated KV260 decode rate : %10.2f token/s\n", sim_tok_s);
    std::printf("host-vs-simulated gap       : %10.2fx (host %s)\n",
                best_host > sim_tok_s ? best_host / sim_tok_s : sim_tok_s / best_host,
                best_host > sim_tok_s ? "faster" : "slower");

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"host_decode\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"decode_tokens\": " << decode_tokens << ",\n"
            << "  \"reps\": " << kReps << ",\n"
            << "  \"weight_bytes_per_token\": " << weight_bytes << ",\n";
        for (const auto& [t, gbps] : peaks) {
            out << "  \"read_peak_" << t << "t_gbps\": " << gbps << ",\n";
        }
        for (const Row& row : rows) {
            out << "  \"" << row.key << "_tok_s\": " << row.tok_s.median << ",\n"
                << "  \"" << row.key << "_tok_s_iqr\": " << row.tok_s.iqr << ",\n"
                << "  \"" << row.key << "_speedup_vs_1t\": " << row.speedup << ",\n"
                << "  \"" << row.key << "_walk_gbps\": " << row.walk_gbps << ",\n"
                << "  \"" << row.key << "_host_bw_util\": " << row.util << ",\n";
        }
        out << "  \"simulated_tok_s\": " << sim_tok_s << "\n"
            << "}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return parity ? 0 : 1;
}
