// Prefix sharing vs no sharing on the same DDR budget: the capacity and
// TTFT win of copy-on-write shared KV pages (ISSUE: serve N sessions that
// open with one common system prompt).
//
// Three measurements, all deterministic:
//
//   1. Engine capacity: one warm request registers a 256-token system prompt
//      in the prefix index, then N follower sessions (same prompt + a unique
//      tail) arrive at once. Without sharing each follower is charged the
//      full 18-page worst case and the pool holds two of them; with sharing
//      the governor discounts the 16 fully-covered pages and every follower
//      fits. Peak concurrent sessions, governor deferrals, and TTFT
//      p50/p99 (from the engine's serve_ttft_ns histogram) are compared at
//      the SAME pool size, and the follower tokens must be bit-identical
//      across the two runs — sharing is a capacity trick, not a model
//      change.
//   2. Cluster routing: prefix-affinity vs best-fit on the hit rate. Same
//      two-shard budget, same warm-then-4-followers traffic; affinity
//      co-locates every sharer onto the warm shard while best-fit pays cold
//      re-prefills on the far one.
//   3. Accel pricing: the cycle model's prefill_timing_shared — the modeled
//      TTFT of adopting 256 of the prompt's tokens from shared DDR pages
//      instead of streaming weights for them.
//
//   --sessions N    follower sessions in the engine phase (8)
//   --tokens N      new tokens per request (16)
//   --pool-pages N  shared pool size, 16-token pages (40)
//   --smoke         CI shape: 6 sessions x 12 tokens, same gates
//   --json [path]   emit BENCH_prefix.json (archive via scripts/bench_archive.sh)
//
// Exit code gates only deterministic metrics: token parity, the >= 2x
// concurrency gain, hit counts, the cluster hit-rate edge, and the
// cycle-model TTFT cut. Wall-clock TTFT is gated too, but only as
// shared-p50 < baseline-p50 — the margin is the difference between
// prefilling 3 tokens and 259, far beyond machine-load wobble.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "accel/cycle_model.hpp"
#include "cluster/placement.hpp"
#include "obs/latency_histogram.hpp"
#include "runtime/serve.hpp"

using namespace efld;

namespace {

constexpr std::size_t kPageTokens = 16;
constexpr std::size_t kSysChars = 255;  // 256 tokens with BOS: 16 full pages

struct EngineResult {
    std::size_t peak_sessions = 0;
    std::size_t deferrals = 0;
    double tok_s = 0.0;
    obs::LatencySummary ttft;
    engine::PrefixSharingStats prefix;
    std::size_t prefix_hits = 0;
    std::size_t prefix_hit_tokens = 0;
    std::vector<std::vector<std::int32_t>> tokens;  // parity fingerprint
};

// Warm the index with the bare system prompt, then throw `sessions`
// followers at the engine at once. Follower 0 reuses the exact system prompt
// (a page-aligned full match: the adoption lands mid-page and must CoW);
// the rest append a unique tail and diverge cleanly on a page boundary.
EngineResult run_engine(const model::QuantizedModelWeights& qw, bool sharing,
                        std::size_t sessions, std::size_t max_new,
                        std::size_t pool_pages) {
    serve::ServeOptions opts;
    opts.max_batch = 16;
    opts.max_queue = sessions + 1;
    opts.paging = true;
    opts.kv_page_tokens = kPageTokens;
    opts.kv_pool_pages = pool_pages;
    opts.prefix_sharing = sharing;
    opts.sampler.temperature = 0.0f;  // greedy: deterministic across configs
    serve::ServeEngine eng(qw, opts);

    const std::string sys(kSysChars, 's');
    serve::RequestHandle warm = eng.submit(serve::Request{
        .prompt = sys, .max_new_tokens = max_new});
    eng.run_until_idle();
    (void)warm.get();

    std::vector<serve::RequestHandle> futs;
    for (std::size_t r = 0; r < sessions; ++r) {
        futs.push_back(eng.submit(serve::Request{
            .prompt = r == 0 ? sys : sys + "/" + std::to_string(r),
            .max_new_tokens = max_new}));
    }
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_until_idle();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();

    EngineResult res;
    res.peak_sessions = eng.stats().peak_batch;
    res.deferrals = eng.stats().capacity_deferrals;
    res.prefix_hits = eng.stats().prefix_hits;
    res.prefix_hit_tokens = eng.stats().prefix_hit_tokens;
    res.prefix = eng.load().prefix;
    res.tok_s = static_cast<double>(sessions * max_new) / s;
    const obs::MetricsSnapshot snap = eng.metrics().snapshot();
    const auto it = snap.histograms.find("serve_ttft_ns");
    if (it != snap.histograms.end()) {
        res.ttft = obs::LatencySummary::from(it->second);
    }
    for (auto& f : futs) res.tokens.push_back(f.get().tokens);
    return res;
}

// The routing comparison from tests/cluster: two 9-page shards, a 32-token
// system prompt warmed through the router, then 4 same-prefix followers.
// Counts prefix hits and how many requests the cold shard served.
struct ClusterResult {
    std::size_t hits = 0;
    std::size_t far_requests = 0;
};

ClusterResult run_cluster(cluster::PlacementPolicy policy) {
    runtime::ClusterOptions o;
    o.shards = 2;
    o.placement = policy;
    o.shard.max_batch = 4;
    o.shard.paging = true;
    o.shard.kv_page_tokens = 8;
    o.shard.kv_pool_pages = 9;
    o.shard.prefix_sharing = true;
    o.shard.sampler.temperature = 0.0f;
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, o);

    const std::string sys(31, 's');  // 32 tokens: 4 aligned 8-token pages
    d.router->submit(runtime::ServeRequest{.prompt = sys, .max_new_tokens = 8});
    d.router->drain();
    std::vector<runtime::RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.router->submit(
            runtime::ServeRequest{.prompt = sys, .max_new_tokens = 8}));
    }
    d.router->drain();
    for (auto& h : hs) (void)h.get();

    ClusterResult res;
    for (std::size_t i = 0; i < d.router->shard_count(); ++i) {
        res.hits += d.router->shard(i).stats().prefix_hits;
    }
    res.far_requests = d.router->shard(1).stats().requests_completed;
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t sessions = 8;
    std::size_t max_new = 16;
    std::size_t pool_pages = 40;
    bool emit_json = false;
    std::string json_path = "BENCH_prefix.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
            sessions = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            max_new = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--pool-pages") == 0 && i + 1 < argc) {
            pool_pages = std::max<std::size_t>(18, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            sessions = 6;
            max_new = 12;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--sessions N] [--tokens N] [--pool-pages N] "
                         "[--smoke] [--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }

    // The stock micro config reserves 64 KV slots; the shared-prefix story
    // is a 256-token system prompt, so the bench widens the reservation. The
    // pool (not max_seq_len) is still the capacity bound under paging.
    model::ModelConfig cfg = model::ModelConfig::micro_256();
    cfg.max_seq_len = 320;
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    const std::size_t sys_tokens = kSysChars + 1;
    // Follower worst case, undiscounted: prompt + tail + new tokens, in pages.
    const std::size_t unique_pages =
        (sys_tokens + 3 + max_new + kPageTokens - 1) / kPageTokens;
    const std::size_t covered_pages = sys_tokens / kPageTokens;
    std::printf(
        "=== Prefix sharing: %zu sessions x %zu-token system prompt, "
        "%zu-page pool (%zu-token pages) ===\n",
        sessions, sys_tokens, pool_pages, kPageTokens);
    std::printf(
        "(each session: ~%zu pages unique, charged %zu when sharing; "
        "%zu new tokens)\n\n",
        unique_pages, unique_pages - covered_pages, max_new);

    const EngineResult base =
        run_engine(qw, /*sharing=*/false, sessions, max_new, pool_pages);
    const EngineResult shared =
        run_engine(qw, /*sharing=*/true, sessions, max_new, pool_pages);

    std::printf("%-12s | %13s | %9s | %9s | %9s | %12s\n", "mode",
                "peak sessions", "deferrals", "ttft p50", "ttft p99",
                "pages shared");
    std::printf(
        "--------------------------------------------------------------------------\n");
    std::printf("%-12s | %13zu | %9zu | %7.2fms | %7.2fms | %12s\n",
                "no sharing", base.peak_sessions, base.deferrals,
                static_cast<double>(base.ttft.p50_ns) / 1e6,
                static_cast<double>(base.ttft.p99_ns) / 1e6, "-");
    std::printf("%-12s | %13zu | %9zu | %7.2fms | %7.2fms | %12zu\n",
                "shared", shared.peak_sessions, shared.deferrals,
                static_cast<double>(shared.ttft.p50_ns) / 1e6,
                static_cast<double>(shared.ttft.p99_ns) / 1e6,
                shared.prefix.pages_shared);
    std::printf(
        "(shared run: %zu hits, %zu covered tokens, %zu CoW %s)\n",
        shared.prefix_hits, shared.prefix_hit_tokens,
        static_cast<std::size_t>(shared.prefix.cow_copies),
        shared.prefix.cow_copies == 1 ? "copy" : "copies");

    const bool parity = base.tokens == shared.tokens;
    const bool capacity_win =
        shared.peak_sessions >= 2 * base.peak_sessions && shared.deferrals == 0;
    const bool ttft_win = shared.ttft.p50_ns < base.ttft.p50_ns;
    const bool all_hit = shared.prefix_hits == sessions;
    std::printf("\nconcurrency gain: %.1fx, tokens bit-identical: %s\n",
                static_cast<double>(shared.peak_sessions) /
                    static_cast<double>(base.peak_sessions),
                parity ? "yes" : "NO (regression!)");

    // ---- cluster: prefix-affinity vs best-fit, same budget and traffic ----
    const ClusterResult affinity =
        run_cluster(cluster::PlacementPolicy::kPrefixAffinity);
    const ClusterResult bestfit =
        run_cluster(cluster::PlacementPolicy::kBestFitPages);
    std::printf("\n=== Cluster: 4 sharers after one warm request, 2 shards ===\n");
    std::printf("%-16s | %10s | %15s\n", "policy", "hits (of 4)", "cold-shard reqs");
    std::printf("--------------------------------------------------\n");
    std::printf("%-16s | %10zu | %15zu\n", "prefix-affinity", affinity.hits,
                affinity.far_requests);
    std::printf("%-16s | %10zu | %15zu\n", "best-fit", bestfit.hits,
                bestfit.far_requests);
    const bool affinity_wins = affinity.hits > bestfit.hits;

    // ---- accel: the cycle model prices the skipped prefill ----
    accel::AccelConfig acfg;
    acfg.kv_page_tokens = kPageTokens;
    accel::DecodeCycleModel cm(model::ModelConfig::llama2_7b(),
                               model::QuantScheme::w4a16_kv8(), acfg);
    const std::size_t prompt_len = sys_tokens + 3;
    const accel::PrefillTiming full = cm.prefill_timing(prompt_len);
    const accel::PrefillTiming adopted =
        cm.prefill_timing_shared(prompt_len, sys_tokens);
    std::printf("\n=== KV260 pricing (LLaMA2-7B): %zu-token prompt, %zu adopted "
                "===\n",
                prompt_len, sys_tokens);
    std::printf("TTFT full prefill: %.2fs, adopted prefix: %.2fs (%.1fx)\n",
                full.total_ns / 1e9, adopted.total_ns / 1e9,
                full.total_ns / adopted.total_ns);
    const bool accel_win = adopted.total_ns < full.total_ns;

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"prefix\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"sys_prompt_tokens\": " << sys_tokens << ",\n"
            << "  \"sessions\": " << sessions << ",\n"
            << "  \"max_new_tokens\": " << max_new << ",\n"
            << "  \"page_tokens\": " << kPageTokens << ",\n"
            << "  \"pool_pages\": " << pool_pages << ",\n"
            << "  \"baseline\": {\"peak_sessions\": " << base.peak_sessions
            << ", \"deferrals\": " << base.deferrals
            << ", \"tok_s\": " << base.tok_s
            << ", \"ttft_p50_ms\": " << static_cast<double>(base.ttft.p50_ns) / 1e6
            << ", \"ttft_p99_ms\": " << static_cast<double>(base.ttft.p99_ns) / 1e6
            << "},\n"
            << "  \"shared\": {\"peak_sessions\": " << shared.peak_sessions
            << ", \"deferrals\": " << shared.deferrals
            << ", \"tok_s\": " << shared.tok_s
            << ", \"ttft_p50_ms\": "
            << static_cast<double>(shared.ttft.p50_ns) / 1e6
            << ", \"ttft_p99_ms\": "
            << static_cast<double>(shared.ttft.p99_ns) / 1e6
            << ", \"prefix_hits\": " << shared.prefix_hits
            << ", \"covered_tokens\": " << shared.prefix_hit_tokens
            << ", \"pages_shared\": " << shared.prefix.pages_shared
            << ", \"cow_copies\": " << shared.prefix.cow_copies << "},\n"
            << "  \"parity\": " << (parity ? "true" : "false") << ",\n"
            << "  \"concurrency_gain\": "
            << static_cast<double>(shared.peak_sessions) /
                   static_cast<double>(base.peak_sessions)
            << ",\n"
            << "  \"cluster\": {\"affinity_hits\": " << affinity.hits
            << ", \"affinity_far_requests\": " << affinity.far_requests
            << ", \"bestfit_hits\": " << bestfit.hits
            << ", \"bestfit_far_requests\": " << bestfit.far_requests << "},\n"
            << "  \"accel\": {\"prompt_tokens\": " << prompt_len
            << ", \"adopted_tokens\": " << sys_tokens
            << ", \"ttft_full_s\": " << full.total_ns / 1e9
            << ", \"ttft_adopted_s\": " << adopted.total_ns / 1e9
            << ", \"ttft_speedup\": " << full.total_ns / adopted.total_ns
            << "}\n"
            << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }

    const bool ok = parity && capacity_win && ttft_win && all_hit &&
                    affinity_wins && accel_win;
    std::printf("\nsharing admits >= 2x the sessions of the same budget: %s\n",
                ok ? "yes" : "NO (regression!)");
    return ok ? 0 : 1;
}
