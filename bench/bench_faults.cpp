// Chaos bench: kill 1 of 4 shards mid-workload and measure what fault
// tolerance costs — and prove what it must not cost.
//
// Shard 0 serves with a scripted fault plan (engine/fault_injection.hpp)
// guaranteeing it dies on its Nth decode step, while a 4-shard cluster works
// through a uniform request load. The router's failure handler harvests the
// dead shard's queued and in-flight requests and fails them over to the
// survivors, replaying each victim's already-streamed tokens as prefill;
// restart_shard(0) then rebuilds the slot while traffic continues.
//
// Gates (exit code):
//   - completion: 100% of accepted requests finish with their full token
//     budget — a shard death mid-workload loses nothing.
//   - parity: every request's tokens are bit-for-bit the fault-free
//     single-engine baseline's (failover resume is deterministic).
//   - exactly-once: per-request streaming transcripts equal the final token
//     sequences — no position delivered twice, none dropped, across the
//     shard boundary the request migrated over.
//   - recovery: the restarted shard is kRestarted and completes new work.
//
// Reported alongside: fault-detection and restart latency, degraded (one
// shard down) vs fault-free cluster throughput, and the replay overhead
// (tokens re-fed as prefill on survivors).
//
// `--json [path]` emits a BENCH_faults.json perf record; archive it with
// scripts/bench_archive.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "runtime/serve.hpp"

using namespace efld;

namespace {

using Clock = std::chrono::steady_clock;

std::string prompt_of(std::size_t r) {
    return "chaos request " + std::to_string(r);
}

double ms_since(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Fault-free single-engine run over the same prompts: the token sequences
// every chaos run must reproduce.
std::vector<std::vector<std::int32_t>> baseline_tokens(
    const model::QuantizedModelWeights& qw, const model::ModelConfig& cfg,
    std::size_t requests, std::size_t max_new) {
    runtime::ServeOptions so;
    so.sampler.temperature = 0.0f;
    so.max_queue = requests;
    serve::ServeEngine engine(qw, so);
    std::vector<runtime::RequestHandle> futs;
    for (std::size_t r = 0; r < requests; ++r) {
        futs.push_back(engine.submit(runtime::ServeRequest{
            .prompt = prompt_of(r), .max_new_tokens = max_new}));
    }
    engine.run_until_idle();
    std::vector<std::vector<std::int32_t>> out;
    for (auto& f : futs) out.push_back(f.get().tokens);
    (void)cfg;
    return out;
}

runtime::ClusterOptions chaos_options(std::size_t requests,
                                      std::string fault_spec) {
    runtime::ClusterOptions opts;
    opts.shards = 4;
    opts.placement = cluster::PlacementPolicy::kLeastLoaded;
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.max_queue = requests;  // survivors can absorb the full harvest
    if (!fault_spec.empty()) opts.shard_fault_specs = {std::move(fault_spec)};
    return opts;
}

struct ChaosResult {
    // Gates.
    bool completed = false;     // all requests ran their full budget
    bool parity = false;        // tokens == fault-free baseline
    bool exactly_once = false;  // transcripts == results, no dupes/drops
    bool restart_serves = false;
    bool fault_fired = false;
    // Timings.
    double detect_ms = 0.0;      // start -> router marks the shard failed
    double restart_ms = 0.0;     // restart_shard() latency
    double wall_tok_s = 0.0;     // throughput of the faulted run
    // Counters from the router.
    std::size_t failed_over = 0;
    std::size_t lost = 0;
    std::size_t replayed = 0;
    std::size_t displaced_requests = 0;  // results with failovers > 0
};

ChaosResult run_chaos(const model::QuantizedModelWeights& qw,
                      const std::vector<std::vector<std::int32_t>>& want,
                      std::size_t requests, std::size_t max_new,
                      std::size_t kill_step) {
    cluster::ClusterRouter router(
        qw, chaos_options(requests, "step:" + std::to_string(kill_step)));

    // Per-request streaming transcript: exactly-once is judged by comparing
    // what on_token delivered against what the result says was generated.
    std::mutex log_mu;
    std::vector<std::vector<std::int32_t>> streamed(requests);
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < requests; ++r) {
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = prompt_of(r),
            .max_new_tokens = max_new,
            .on_token =
                [&log_mu, &streamed, r](std::int32_t tok, std::string_view) {
                    const std::lock_guard<std::mutex> lock(log_mu);
                    streamed[r].push_back(tok);
                }}));
    }

    ChaosResult res;
    const auto t0 = Clock::now();
    router.start();

    // Wait for the scripted death, then restart the slot while the survivors
    // keep serving — recovery happens under load, as it would in production.
    while (router.shard_health(0) != cluster::ShardHealth::kFailed) {
        if (router.stats().requests_completed() >= requests) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    res.fault_fired = router.shard_health(0) == cluster::ShardHealth::kFailed;
    const auto t_detect = Clock::now();
    if (res.fault_fired) router.restart_shard(0);
    const auto t_restarted = Clock::now();

    for (auto& h : handles) (void)h.get();
    const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

    res.detect_ms = ms_since(t0, t_detect);
    res.restart_ms = ms_since(t_detect, t_restarted);

    res.completed = true;
    res.parity = true;
    res.exactly_once = true;
    for (std::size_t r = 0; r < requests; ++r) {
        const runtime::ServeResult& got = handles[r].get();
        if (got.finish_reason != runtime::FinishReason::kBudget) res.completed = false;
        if (got.tokens != want[r]) res.parity = false;
        res.displaced_requests += got.failovers > 0 ? 1 : 0;
        const std::lock_guard<std::mutex> lock(log_mu);
        if (streamed[r] != got.tokens) res.exactly_once = false;
    }

    runtime::ClusterStats cs = router.stats();
    res.wall_tok_s = static_cast<double>(cs.generated_tokens()) / wall_s;
    res.failed_over = cs.requests_failed_over;
    res.lost = cs.requests_lost;
    res.replayed = cs.replayed_tokens();

    // Recovery gate: the rebuilt slot is marked restarted and pulls its share
    // of fresh traffic.
    if (res.fault_fired &&
        router.shard_health(0) == cluster::ShardHealth::kRestarted) {
        std::vector<runtime::RequestHandle> post;
        for (std::size_t r = 0; r < 8; ++r) {
            post.push_back(router.submit(runtime::ServeRequest{
                .prompt = "post-restart " + std::to_string(r),
                .max_new_tokens = 4}));
        }
        for (auto& h : post) (void)h.get();
        res.restart_serves =
            router.stats().shards[0].stats.requests_completed > 0;
    }
    router.stop();
    return res;
}

// The same workload with no fault script: the throughput yardstick the
// degraded run is measured against.
double run_fault_free(const model::QuantizedModelWeights& qw,
                      std::size_t requests, std::size_t max_new) {
    cluster::ClusterRouter router(qw, chaos_options(requests, ""));
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < requests; ++r) {
        handles.push_back(router.submit(
            runtime::ServeRequest{.prompt = prompt_of(r), .max_new_tokens = max_new}));
    }
    const auto t0 = Clock::now();
    router.start();
    router.drain();
    const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    router.stop();
    return static_cast<double>(router.stats().generated_tokens()) / wall_s;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t requests = 32;
    std::size_t max_new = 16;
    // Mid-decode of shard 0's first wave: its four sessions finish their
    // prompt tiles within the first few steps and decode until ~step 20.
    std::size_t kill_step = 15;
    bool smoke = false;
    bool emit_json = false;
    std::string json_path = "BENCH_faults.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = std::max<std::size_t>(8, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            max_new = std::max<std::size_t>(4, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--kill-step") == 0 && i + 1 < argc) {
            kill_step = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--requests R] [--tokens N] [--kill-step K] "
                         "[--smoke] [--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke) requests = std::min<std::size_t>(requests, 16);

    const model::ModelConfig cfg = model::ModelConfig::micro_256();
    std::printf(
        "=== Chaos: kill shard 0/4 at decode step %zu, %zu requests x %zu "
        "tokens%s ===\n\n",
        kill_step, requests, max_new, smoke ? " (smoke)" : "");

    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    const std::vector<std::vector<std::int32_t>> want =
        baseline_tokens(qw, cfg, requests, max_new);
    const ChaosResult r = run_chaos(qw, want, requests, max_new, kill_step);
    const double fault_free_tok_s = run_fault_free(qw, requests, max_new);
    const double degraded_ratio =
        fault_free_tok_s > 0.0 ? r.wall_tok_s / fault_free_tok_s : 0.0;

    std::printf("fault fired on shard 0:            %s\n",
                r.fault_fired ? "yes" : "NO (kill step never reached!)");
    std::printf("fault detected after:              %.1f ms\n", r.detect_ms);
    std::printf("restart_shard latency:             %.1f ms\n", r.restart_ms);
    std::printf("requests failed over / lost:       %zu / %zu\n", r.failed_over,
                r.lost);
    std::printf("displaced requests completed:      %zu\n", r.displaced_requests);
    std::printf("tokens replayed as prefill:        %zu\n", r.replayed);
    std::printf("degraded throughput:               %.1f tok/s (fault-free "
                "%.1f, ratio %.2f)\n\n",
                r.wall_tok_s, fault_free_tok_s, degraded_ratio);

    std::printf("all accepted requests completed:   %s\n",
                r.completed ? "yes" : "NO (regression!)");
    std::printf("token parity with fault-free run:  %s\n",
                r.parity ? "yes" : "NO (regression!)");
    std::printf("exactly-once streaming:            %s\n",
                r.exactly_once ? "yes" : "NO (regression!)");
    std::printf("restarted shard serves again:      %s\n",
                r.restart_serves ? "yes" : "NO (regression!)");

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"faults\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"shards\": 4,\n"
            << "  \"requests\": " << requests << ",\n"
            << "  \"max_new_tokens\": " << max_new << ",\n"
            << "  \"kill_step\": " << kill_step << ",\n"
            << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
            << "  \"gates\": {\"completed\": " << (r.completed ? "true" : "false")
            << ", \"parity\": " << (r.parity ? "true" : "false")
            << ", \"exactly_once\": " << (r.exactly_once ? "true" : "false")
            << ", \"restart_serves\": " << (r.restart_serves ? "true" : "false")
            << "},\n"
            << "  \"detect_ms\": " << r.detect_ms << ",\n"
            << "  \"restart_ms\": " << r.restart_ms << ",\n"
            << "  \"requests_failed_over\": " << r.failed_over << ",\n"
            << "  \"requests_lost\": " << r.lost << ",\n"
            << "  \"replayed_tokens\": " << r.replayed << ",\n"
            << "  \"degraded_tok_s\": " << r.wall_tok_s << ",\n"
            << "  \"fault_free_tok_s\": " << fault_free_tok_s << ",\n"
            << "  \"degraded_ratio\": " << degraded_ratio << "\n"
            << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }

    const bool ok = r.fault_fired && r.completed && r.parity &&
                    r.exactly_once && r.restart_serves && r.lost == 0;
    return ok ? 0 : 1;
}
