// A deployable serving cluster on one command line: N engine shards behind a
// load-aware router behind a TCP front-end.
//
//   $ ./serve_server --shards 2 --policy least-loaded --port 9177
//   listening on 127.0.0.1:9177 (2 shards, least-loaded, micro-256)
//
// Then, from another terminal: ./serve_client --port 9177 --prompt "hi".
// The server runs until stdin closes (Ctrl-D, or the end of a pipe) or
// --serve-seconds elapses — both scriptable shapes.
//
//   --shards N          engine shards, each with its own backend + driver (2)
//   --policy P          round-robin | least-loaded | best-fit |
//                       prefix-affinity (least-loaded)
//   --port P            TCP port; 0 picks an ephemeral one (0)
//   --model M           micro | tiny (micro)
//   --paging            per-shard KV page pools + governor admission
//   --prefix-sharing    shared-prefix KV reuse across sessions (implies
//                       --paging; pair with --policy prefix-affinity so
//                       sharers co-locate)
//   --serve-seconds S   serve for S seconds instead of until stdin EOF
//   --metrics-dump S    print the cluster's Prometheus snapshot every S
//                       seconds while serving (same body a kMetrics wire
//                       scrape returns), plus a one-line summary of the
//                       rates since the previous dump (tokens, completions,
//                       deferrals, failovers per second)
//   --trace-out PATH    enable the trace ring + per-phase profiler and write
//                       the Perfetto timeline JSON to PATH at exit (the same
//                       body a kTraceDump wire request returns live)
//   --fault-shard0 SPEC scripted fault on shard 0 only (e.g. step:40) —
//                       failover demos without hand-crafted clients
//   --slo SPEC          SLO engine: comma-separated alert rules (threshold:
//                       .../burnrate:... — see obs/alert_engine.hpp) sampled
//                       every second into the in-process TSDB; firing alerts
//                       engage overload protection (shedding, stretched
//                       retry hints, degraded placement) until they resolve,
//                       and the kAlerts/kQuery wire frames come alive
//   --slo-interval-ms N sampling cadence for --slo (default 1000; smoke
//                       tests drop it to catch short bursts)
//   --flight-dir DIR    write flight-recorder bundles (black-box JSON) to
//                       DIR on shard failure or alert firing (works alone
//                       for shard-failure capture; pair with --slo for
//                       alert-triggered bundles)
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/socket_frontend.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

using namespace efld;

int main(int argc, char** argv) {
    std::size_t shards = 2;
    std::string policy = "least-loaded";
    std::string model_name = "micro";
    std::uint16_t port = 0;
    bool paging = false;
    bool prefix_sharing = false;
    long serve_seconds = -1;
    long metrics_dump_seconds = 0;
    std::string trace_out;
    std::string fault_shard0;
    std::string slo_rules;
    std::string flight_dir;
    long slo_interval_ms = 1000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
            policy = argv[++i];
        } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
            port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
        } else if (std::strcmp(argv[i], "--paging") == 0) {
            paging = true;
        } else if (std::strcmp(argv[i], "--prefix-sharing") == 0) {
            prefix_sharing = true;
        } else if (std::strcmp(argv[i], "--serve-seconds") == 0 && i + 1 < argc) {
            serve_seconds = std::stol(argv[++i]);
        } else if (std::strcmp(argv[i], "--metrics-dump") == 0 && i + 1 < argc) {
            metrics_dump_seconds = std::max(1L, std::stol(argv[++i]));
        } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (std::strcmp(argv[i], "--fault-shard0") == 0 && i + 1 < argc) {
            fault_shard0 = argv[++i];
        } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
            slo_rules = argv[++i];
        } else if (std::strcmp(argv[i], "--slo-interval-ms") == 0 &&
                   i + 1 < argc) {
            slo_interval_ms = std::max(1L, std::stol(argv[++i]));
        } else if (std::strcmp(argv[i], "--flight-dir") == 0 && i + 1 < argc) {
            flight_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--shards N] [--policy round-robin|least-"
                         "loaded|best-fit|prefix-affinity] [--port P] "
                         "[--model micro|tiny] [--paging] [--prefix-sharing] "
                         "[--serve-seconds S] [--metrics-dump S] "
                         "[--trace-out PATH] [--fault-shard0 SPEC] "
                         "[--slo RULES] [--slo-interval-ms N] "
                         "[--flight-dir DIR]\n",
                         argv[0]);
            return 2;
        }
    }

    runtime::ClusterOptions opts;
    opts.shards = shards;
    opts.placement = cluster::placement_policy_from_string(policy);
    opts.shard.sampler.temperature = 0.0f;  // deterministic demo output
    opts.shard.paging = paging || prefix_sharing;  // sharing lives in the pool
    opts.shard.prefix_sharing = prefix_sharing;
    if (!trace_out.empty() || !slo_rules.empty() || !flight_dir.empty()) {
        // One shared ring across shards (cross-shard failover reads as one
        // story) + the per-phase profiler, so the timeline has both the
        // request lifecycle and the driver's phase slices. The SLO engine
        // wants the same ring for its alert-transition events and flight
        // bundles.
        opts.shard.trace = std::make_shared<obs::TraceRecorder>(8192);
        opts.shard.profile = true;
    }
    std::shared_ptr<serve::OverloadGovernor> governor;
    if (!slo_rules.empty()) {
        // The actuator half of the SLO loop, shared by every shard's shed
        // sweep and the router's admission/placement paths.
        governor = std::make_shared<serve::OverloadGovernor>();
        opts.shard.overload = governor;
    }
    if (!fault_shard0.empty()) opts.shard_fault_specs = {fault_shard0};
    const model::ModelConfig cfg = model_name == "tiny"
                                       ? model::ModelConfig::tiny_512()
                                       : model::ModelConfig::micro_256();
    runtime::ClusterDeployment d = runtime::synthetic_cluster(cfg, 42, opts);
    std::unique_ptr<cluster::SloController> slo;
    if (!slo_rules.empty() || !flight_dir.empty()) {
        cluster::SloController::Options so;
        so.rules = slo_rules;
        so.flight_dir = flight_dir;
        so.governor = governor;
        so.sample_interval_ns =
            static_cast<std::uint64_t>(slo_interval_ms) * 1'000'000ull;
        slo = std::make_unique<cluster::SloController>(*d.router, so);
    }
    d.router->start();
    if (slo) slo->start();

    cluster::SocketServer::Options sopts;
    sopts.port = port;
    cluster::SocketServer server(*d.router, sopts);
    server.set_slo(slo.get());
    server.start();
    std::printf("listening on 127.0.0.1:%u (%zu shards, %s, %s%s%s)\n",
                server.port(), shards,
                std::string(d.router->placement_name()).c_str(),
                cfg.name.c_str(), opts.shard.paging ? ", paging" : "",
                prefix_sharing ? ", prefix-sharing" : "");
    std::fflush(stdout);

    // Periodic observability dump: the same Prometheus body a kMetrics wire
    // scrape returns, printed on an interval. Interval waits go through a
    // condition variable so shutdown never blocks on a sleeping dumper.
    std::mutex dump_mu;
    std::condition_variable dump_cv;
    bool dump_stop = false;
    std::thread dumper;
    if (metrics_dump_seconds > 0) {
        dumper = std::thread([&] {
            obs::MetricsSnapshot prev;
            auto prev_t = std::chrono::steady_clock::now();
            std::unique_lock<std::mutex> lk(dump_mu);
            while (!dump_cv.wait_for(lk,
                                     std::chrono::seconds(metrics_dump_seconds),
                                     [&] { return dump_stop; })) {
                lk.unlock();
                const obs::MetricsSnapshot snap = d.router->metrics_snapshot();
                const auto now = std::chrono::steady_clock::now();
                std::printf("--- metrics dump ---\n%s",
                            obs::to_prometheus(snap).c_str());
                // What the cluster did since the last dump, not since boot:
                // deltas of the cumulative counters above (a restarted
                // shard's reset counts from zero).
                const double dt = std::chrono::duration<double>(now - prev_t).count();
                const auto rate = [&](const char* name) {
                    const auto cur = snap.counters.find(name);
                    const auto old = prev.counters.find(name);
                    const std::uint64_t c = cur == snap.counters.end() ? 0 : cur->second;
                    const std::uint64_t p = old == prev.counters.end() ? 0 : old->second;
                    return static_cast<double>(c >= p ? c - p : c) / dt;
                };
                std::printf(
                    "last %.1fs: %.1f tokens/s, %.1f completions/s, "
                    "%.1f deferrals/s, %.1f failovers/s\n",
                    dt, rate("serve_generated_tokens"),
                    rate("serve_requests_completed"),
                    rate("serve_capacity_deferrals"),
                    rate("serve_requests_resumed"));
                std::fflush(stdout);
                prev = snap;
                prev_t = now;
                lk.lock();
            }
        });
    }

    if (serve_seconds >= 0) {
        std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    } else {
        while (std::fgetc(stdin) != EOF) {}
    }

    if (dumper.joinable()) {
        {
            const std::lock_guard<std::mutex> lk(dump_mu);
            dump_stop = true;
        }
        dump_cv.notify_one();
        dumper.join();
    }
    server.stop();
    if (slo) slo->stop();
    d.router->drain();
    if (!trace_out.empty()) {
        // Dump before stop(): a scripted fault may have parked an error that
        // stop() rethrows, and the timeline is the whole point of the run.
        std::ofstream out(trace_out);
        out << d.router->trace_json();
        std::printf("wrote trace to %s\n", trace_out.c_str());
    }
    d.router->stop();
    const runtime::ClusterStats cs = d.router->stats();
    std::printf("served %zu requests (%zu tokens) across %zu shards\n",
                cs.requests_completed(), cs.generated_tokens(), shards);
    for (std::size_t i = 0; i < cs.shards.size(); ++i) {
        std::printf("  shard %zu: %zu requests, %zu tokens, peak batch %zu\n", i,
                    cs.shards[i].stats.requests_completed,
                    cs.shards[i].stats.generated_tokens,
                    cs.shards[i].stats.peak_batch);
    }
    return 0;
}
