// Sharded-cluster serving: aggregate throughput and queue wait vs shard
// count x placement policy, plus the capacity story best-fit placement
// exists for.
//
// Each shard is a fully independent engine (own backend weight walk, own
// governor page pool, own driver thread) — the deployment model is one shard
// per device/NUMA domain, so the cluster's aggregate throughput is total
// tokens over the SLOWEST shard's busy time ("isolated tok/s": busy =
// StepCost wall time for the host backend, modeled device time for accel).
// That metric is what the scaling gate uses — it measures placement balance
// and is independent of how many host cores this machine happens to have.
// Measured wall-clock throughput and first-token waits (p50/p95/p99 from an
// obs::LatencyHistogram — the same log-bucket summaries the serving layer
// exports) are reported alongside: on a machine with >= shards cores the
// wall numbers follow the isolated ones.
//
// Phase A — scaling: policies x shard counts {1, 2, 4} over a uniform
// request load. Placement runs before the drivers start, so routing is a
// deterministic function of queue state, and every run's per-request tokens
// must equal a single-engine ServeEngine baseline (parity fingerprint —
// sharding must not change anyone's output).
//
// Phase B — capacity: a mixed-context workload (whole-pool "big" requests
// interleaved with small ones) against per-shard KV page pools, stepped in
// LOCKSTEP (no drivers) so concurrency is deterministic. Round-robin and
// least-loaded are blind to pages and stack the bigs on one shard where they
// serialize; best-fit-by-pages tops up tight shards with small requests and
// preserves whole-pool headroom for big ones — more sessions admitted
// concurrently and a shorter makespan from the same pools.
//
// Gates (exit code): parity, best-fit peak sessions >= round-robin, and
// either 2-shard isolated tok/s >= 1.5x 1-shard (--smoke: the CI gate) or
// isolated tok/s monotonically non-decreasing over {1, 2, 4} (full run, 2%
// tolerance).
//
// `--json [path]` emits a BENCH_cluster.json perf record; archive it with
// scripts/bench_archive.sh.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/latency_histogram.hpp"
#include "runtime/serve.hpp"

using namespace efld;

namespace {

using Clock = std::chrono::steady_clock;

struct ScalingResult {
    std::string policy;
    std::size_t shards = 0;
    double wall_tok_s = 0.0;      // measured on this machine
    double isolated_tok_s = 0.0;  // tokens / slowest-shard busy time
    obs::LatencySummary wait;     // submit-burst start -> first token (ns)
    std::vector<std::vector<std::int32_t>> tokens;  // parity fingerprint
};

std::string prompt_of(std::size_t r) {
    return "cluster request " + std::to_string(r);
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Phase A runner: submit everything (deterministic placement over queue
// state), then start the drivers and drain.
ScalingResult run_scaling(const model::QuantizedModelWeights& qw,
                          engine::BackendKind backend,
                          cluster::PlacementPolicy policy, std::size_t shards,
                          std::size_t requests, std::size_t max_new) {
    runtime::ClusterOptions opts;
    opts.shards = shards;
    opts.placement = policy;
    opts.shard.backend = backend;
    opts.shard.sampler.temperature = 0.0f;  // deterministic across placements
    opts.shard.max_queue = requests;
    cluster::ClusterRouter router(qw, opts);

    struct Wait {
        std::atomic<std::int64_t> first_ns{-1};
    };
    std::vector<std::unique_ptr<Wait>> waits;
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < requests; ++r) {
        waits.push_back(std::make_unique<Wait>());
        Wait* w = waits.back().get();
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = prompt_of(r),
            .max_new_tokens = max_new,
            .on_token =
                [w](std::int32_t, std::string_view) {
                    std::int64_t expected = -1;
                    const std::int64_t now =
                        Clock::now().time_since_epoch().count();
                    w->first_ns.compare_exchange_strong(expected, now);
                }}));
    }

    const auto t0 = Clock::now();
    router.start();
    router.drain();
    router.stop();
    const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

    ScalingResult res;
    res.policy = std::string(cluster::to_string(policy));
    res.shards = shards;
    const runtime::ClusterStats cs = router.stats();
    res.wall_tok_s = static_cast<double>(cs.generated_tokens()) / wall_s;
    res.isolated_tok_s = backend == engine::BackendKind::kAccel
                             ? cs.simulated_cluster_tokens_per_s()
                             : cs.isolated_tokens_per_s();
    // First-token waits go through the same log-bucket histogram the serving
    // layer exports — one summary type from bench tables to wire scrapes.
    obs::LatencyHistogram wait_hist;
    const std::int64_t start_ns = t0.time_since_epoch().count();
    for (const auto& w : waits) {
        const std::int64_t f = w->first_ns.load();
        if (f >= start_ns) {
            wait_hist.record(static_cast<std::uint64_t>(f - start_ns));
        }
    }
    res.wait = obs::LatencySummary::from(wait_hist.snapshot());
    for (auto& h : handles) res.tokens.push_back(h.get().tokens);
    return res;
}

// Phase B: mixed-context capacity workload, stepped in lockstep for
// deterministic concurrency.
struct CapacityResult {
    std::string policy;
    std::size_t peak_sessions = 0;  // max over rounds of cluster-wide active
    std::size_t deferrals = 0;      // governor refusals, all shards
    std::size_t rounds = 0;         // lockstep makespan
    std::vector<std::vector<std::int32_t>> tokens;
};

CapacityResult run_capacity(const model::QuantizedModelWeights& qw,
                            engine::BackendKind backend,
                            cluster::PlacementPolicy policy) {
    // Per shard: 8 pages of 8 tokens = one full 64-token context of budget.
    // big = 5 pages (prompt 5 + 35 new = 40 tokens), small = 3 pages
    // (prompt 4 + 20 = 24): two bins where {big, small} packs exactly and
    // {big, big} or {small, small, small} does not — the bin-packing shape
    // page-blind placement fumbles.
    runtime::ClusterOptions opts;
    opts.shards = 2;
    opts.placement = policy;
    opts.shard.backend = backend;
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.max_batch = 4;  // slots are never the bound here
    opts.shard.max_queue = 16;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 8;
    opts.shard.kv_pool_pages = 8;
    cluster::ClusterRouter router(qw, opts);

    std::vector<runtime::RequestHandle> handles;
    for (std::size_t pair = 0; pair < 4; ++pair) {
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = "big" + std::to_string(pair), .max_new_tokens = 35}));
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = "sm" + std::to_string(pair), .max_new_tokens = 20}));
    }

    CapacityResult res;
    res.policy = std::string(cluster::to_string(policy));
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t i = 0; i < router.shard_count(); ++i) {
            more = router.shard(i).step() || more;
        }
        std::size_t active = 0;
        for (std::size_t i = 0; i < router.shard_count(); ++i) {
            active += router.shard(i).active_sessions();
        }
        res.peak_sessions = std::max(res.peak_sessions, active);
        ++res.rounds;
        check(res.rounds < 100000, "bench_cluster: lockstep failed to drain");
    }
    const runtime::ClusterStats cs = router.stats();
    res.deferrals = cs.capacity_deferrals();
    for (auto& h : handles) res.tokens.push_back(h.get().tokens);
    return res;
}

// Per-phase cost attribution, cluster-wide: a 2-shard profiled run whose
// serve_phase_* counters merge across shards in the router's snapshot.
struct PhaseTotalsRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t sim_ns = 0;
};

std::vector<PhaseTotalsRow> run_phases(const model::QuantizedModelWeights& qw,
                                       engine::BackendKind backend,
                                       std::size_t requests,
                                       std::size_t max_new) {
    runtime::ClusterOptions opts;
    opts.shards = 2;
    opts.shard.backend = backend;
    opts.shard.sampler.temperature = 0.0f;
    opts.shard.max_queue = requests;
    opts.shard.profile = true;
    cluster::ClusterRouter router(qw, opts);
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < requests; ++r) {
        handles.push_back(router.submit(runtime::ServeRequest{
            .prompt = prompt_of(r), .max_new_tokens = max_new}));
    }
    router.start();
    router.drain();
    router.stop();
    for (auto& h : handles) (void)h.get();
    const obs::MetricsSnapshot snap = router.metrics_snapshot();
    std::vector<PhaseTotalsRow> rows;
    for (int p = 0; p < static_cast<int>(obs::Phase::kCount); ++p) {
        PhaseTotalsRow row;
        row.name = obs::to_string(static_cast<obs::Phase>(p));
        const std::string base = "serve_phase_" + row.name;
        const auto counter = [&](const std::string& n) -> std::uint64_t {
            const auto it = snap.counters.find(n);
            return it == snap.counters.end() ? 0 : it->second;
        };
        row.count = counter(base + "_count_total");
        row.wall_ns = counter(base + "_wall_ns_total");
        row.sim_ns = counter(base + "_sim_ns_total");
        if (row.count > 0) rows.push_back(row);
    }
    return rows;
}

}  // namespace

int main(int argc, char** argv) {
    std::string model_name = "micro";
    std::string backend_name = "host";
    std::size_t requests = 48;
    std::size_t max_new = 16;
    bool smoke = false;
    bool emit_json = false;
    std::string json_path = "BENCH_cluster.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
        } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
            backend_name = argv[++i];
        } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = std::max<std::size_t>(4, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            max_new = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--model micro|tiny] [--backend host|accel] "
                         "[--requests R] [--tokens N] [--smoke] [--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }
    const engine::BackendKind backend =
        engine::backend_kind_from_string(backend_name);
    const model::ModelConfig cfg = model_name == "tiny"
                                       ? model::ModelConfig::tiny_512()
                                       : model::ModelConfig::micro_256();
    if (smoke) requests = std::min<std::size_t>(requests, 24);

    std::printf(
        "=== Cluster serving: %s, %s backend, %zu requests x %zu tokens%s ===\n\n",
        cfg.name.c_str(), backend_name.c_str(), requests, max_new,
        smoke ? " (smoke)" : "");

    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    // Single-engine baseline: the parity fingerprint every cluster run must
    // reproduce request for request.
    std::vector<std::vector<std::int32_t>> baseline;
    {
        runtime::ServeOptions so;
        so.backend = backend;
        so.sampler.temperature = 0.0f;
        so.max_queue = requests;
        runtime::ServeDeployment d = runtime::synthetic_serve(cfg, 42, so);
        std::vector<runtime::RequestHandle> futs;
        for (std::size_t r = 0; r < requests; ++r) {
            futs.push_back(d.engine->submit(runtime::ServeRequest{
                .prompt = prompt_of(r), .max_new_tokens = max_new}));
        }
        d.engine->run_until_idle();
        for (auto& f : futs) baseline.push_back(f.get().tokens);
    }

    // ---- Phase A: scaling ----
    const std::vector<std::size_t> shard_counts =
        smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
    const std::vector<cluster::PlacementPolicy> policies =
        smoke ? std::vector<cluster::PlacementPolicy>{
                    cluster::PlacementPolicy::kLeastLoaded}
              : std::vector<cluster::PlacementPolicy>{
                    cluster::PlacementPolicy::kRoundRobin,
                    cluster::PlacementPolicy::kLeastLoaded,
                    cluster::PlacementPolicy::kBestFitPages};

    std::printf("%-14s | %6s | %12s | %12s | %9s | %9s | %9s\n", "policy",
                "shards", "wall tok/s", "isol. tok/s", "p50 wait", "p95 wait",
                "p99 wait");
    std::printf(
        "------------------------------------------------------------------------"
        "--------------\n");
    std::vector<ScalingResult> scaling;
    bool parity = true;
    for (const cluster::PlacementPolicy policy : policies) {
        for (const std::size_t shards : shard_counts) {
            scaling.push_back(
                run_scaling(qw, backend, policy, shards, requests, max_new));
            const ScalingResult& r = scaling.back();
            std::printf(
                "%-14s | %6zu | %12.1f | %12.1f | %7.1fms | %7.1fms | %7.1fms\n",
                r.policy.c_str(), r.shards, r.wall_tok_s, r.isolated_tok_s,
                ns_to_ms(r.wait.p50_ns), ns_to_ms(r.wait.p95_ns),
                ns_to_ms(r.wait.p99_ns));
            if (r.tokens != baseline) parity = false;
        }
    }
    std::printf("\nper-request tokens identical to single-engine serve: %s\n",
                parity ? "yes" : "NO (regression!)");

    // Scaling gates on the least-loaded column (the default policy).
    std::vector<double> isolated_by_shards;
    for (const ScalingResult& r : scaling) {
        if (r.policy == "least-loaded") isolated_by_shards.push_back(r.isolated_tok_s);
    }
    bool monotonic = true;
    for (std::size_t i = 1; i < isolated_by_shards.size(); ++i) {
        if (isolated_by_shards[i] < 0.98 * isolated_by_shards[i - 1]) {
            monotonic = false;
        }
    }
    const double smoke_speedup =
        isolated_by_shards.size() >= 2 && isolated_by_shards[0] > 0.0
            ? isolated_by_shards[1] / isolated_by_shards[0]
            : 0.0;
    if (smoke) {
        std::printf("2-shard isolated speedup: %.2fx (gate: >= 1.5x) — %s\n",
                    smoke_speedup, smoke_speedup >= 1.5 ? "ok" : "FAIL");
    } else {
        std::printf("isolated tok/s monotonic over shard count: %s\n",
                    monotonic ? "yes" : "NO (regression!)");
    }

    // ---- Phase B: capacity under mixed contexts ----
    std::printf("\n=== Capacity: mixed big/small contexts, 2 shards x 8-page "
                "pools (lockstep) ===\n\n");
    std::printf("%-14s | %14s | %9s | %8s\n", "policy", "peak sessions",
                "deferrals", "rounds");
    std::printf("----------------------------------------------------\n");
    std::vector<CapacityResult> capacity;
    for (const cluster::PlacementPolicy policy :
         {cluster::PlacementPolicy::kRoundRobin,
          cluster::PlacementPolicy::kLeastLoaded,
          cluster::PlacementPolicy::kBestFitPages}) {
        capacity.push_back(run_capacity(qw, backend, policy));
        const CapacityResult& r = capacity.back();
        std::printf("%-14s | %14zu | %9zu | %8zu\n", r.policy.c_str(),
                    r.peak_sessions, r.deferrals, r.rounds);
    }
    const CapacityResult& cap_rr = capacity[0];
    const CapacityResult& cap_bf = capacity[2];
    const bool bf_admits = cap_bf.peak_sessions >= cap_rr.peak_sessions;
    bool cap_parity = true;
    for (std::size_t i = 1; i < capacity.size(); ++i) {
        if (capacity[i].tokens != capacity[0].tokens) cap_parity = false;
    }
    std::printf("\nbest-fit admits >= round-robin sessions: %s (%zu vs %zu)\n",
                bf_admits ? "yes" : "NO (regression!)", cap_bf.peak_sessions,
                cap_rr.peak_sessions);
    if (!cap_parity) {
        std::printf("WARNING: capacity-workload tokens diverged across policies!\n");
    }

    // ---- per-phase attribution, merged across 2 shards ----
    const std::vector<PhaseTotalsRow> phases =
        run_phases(qw, backend, std::min<std::size_t>(requests, 16), max_new);
    std::printf("\n=== Per-phase cost attribution (2 shards, merged) ===\n");
    std::printf("%-14s | %10s | %12s | %12s\n", "phase", "count", "wall ms",
                "sim ms");
    std::printf("------------------------------------------------------\n");
    for (const PhaseTotalsRow& row : phases) {
        std::printf("%-14s | %10llu | %12.3f | %12.3f\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    static_cast<double>(row.wall_ns) / 1e6,
                    static_cast<double>(row.sim_ns) / 1e6);
    }

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"cluster\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"backend\": \"" << backend_name << "\",\n"
            << "  \"requests\": " << requests << ",\n"
            << "  \"max_new_tokens\": " << max_new << ",\n"
            << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
            << "  \"parity\": " << (parity ? "true" : "false") << ",\n"
            << "  \"scaling\": [\n";
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const ScalingResult& r = scaling[i];
            out << "    {\"policy\": \"" << r.policy << "\", \"shards\": "
                << r.shards << ", \"wall_tok_s\": " << r.wall_tok_s
                << ", \"isolated_tok_s\": " << r.isolated_tok_s
                << ", \"latency\": {\"count\": " << r.wait.count
                << ", \"p50_wait_ms\": " << ns_to_ms(r.wait.p50_ns)
                << ", \"p95_wait_ms\": " << ns_to_ms(r.wait.p95_ns)
                << ", \"p99_wait_ms\": " << ns_to_ms(r.wait.p99_ns)
                << ", \"max_wait_ms\": " << ns_to_ms(r.wait.max_ns) << "}}"
                << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        if (smoke) {
            out << "  \"smoke_speedup_2_shards\": " << smoke_speedup << ",\n";
        } else {
            out << "  \"scaling_monotonic\": " << (monotonic ? "true" : "false")
                << ",\n";
        }
        out << "  \"capacity\": {\n"
            << "    \"shards\": 2, \"pool_pages\": 8, \"page_tokens\": 8,\n";
        for (std::size_t i = 0; i < capacity.size(); ++i) {
            const CapacityResult& r = capacity[i];
            out << "    \"" << r.policy << "\": {\"peak_sessions\": "
                << r.peak_sessions << ", \"deferrals\": " << r.deferrals
                << ", \"rounds\": " << r.rounds << "}"
                << (i + 1 < capacity.size() ? "," : "") << "\n";
        }
        out << "  },\n"
            << "  \"phases\": [\n";
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const PhaseTotalsRow& row = phases[i];
            out << "    {\"phase\": \"" << row.name
                << "\", \"count\": " << row.count
                << ", \"wall_ns\": " << row.wall_ns
                << ", \"sim_ns\": " << row.sim_ns << "}"
                << (i + 1 < phases.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }

    const bool scaling_ok = smoke ? smoke_speedup >= 1.5 : monotonic;
    return (parity && cap_parity && bf_admits && scaling_ok) ? 0 : 1;
}
