// Sharded serving cluster: N independent engine+governor pairs behind one
// load-aware router.
//
// A single ServeEngine is capped by one backend's weight walk and one
// governor's page pool. The natural scale-out unit on embedded parts is MORE
// DEVICES — each with its own DDR bandwidth and capacity budget — so the
// cluster layer shards traffic across fully independent shards instead of
// growing one pool:
//
//   shard = engine::make_backend (own weight walk)
//         + kvpool::CapacityGovernor (own page budget, when paging)
//         + serve::ServeEngine::run() (own background driver thread)
//
// The router owns the shards and routes serve::Requests through a pluggable
// Placement policy (round-robin, least-loaded, best-fit-by-pages,
// prefix-affinity — see placement.hpp). Everything downstream of placement is the single-engine
// serve path: per-request streaming callbacks, cancellation, deadlines, and
// governor admission all work unchanged, and a request's tokens are
// bit-for-bit identical to a solo run whichever shard it lands on (sessions
// never interact), so routing is a pure throughput/capacity decision.
//
// Backpressure: submit() throws when every shard is saturated; try_submit()
// instead returns Rejected{retry_hint} (HTTP-429 style) so a front-end can
// shed load without exceptions. A demand no shard's pool could EVER hold is
// not backpressure — both paths throw, mirroring ServeEngine::submit.
//
// Fault tolerance: every shard engine reports backend faults through its
// failure callback the instant a backend call throws. The router's handler
// (running on the failed shard's driver thread) marks the shard kFailed —
// excluding it from every placement decision and from try_submit's capacity
// math — then harvests the shard's queued AND in-flight requests and fails
// them over to surviving shards. A failed-over request resumes where it
// stopped: the tokens the dead shard already streamed replay as prefill on
// the survivor (rebuilding KV state deterministically) and are never
// re-delivered to on_token — exactly-once per (request, position), with
// ServeResult::failovers recording the displacement. Requests no survivor
// can take resolve with FinishReason::kShardFailure. restart_shard() builds
// a replacement engine in place (kRestarted, immediately serving-eligible).
//
// Threading: submit()/try_submit() are safe from any thread (placement
// decisions serialize on an internal mutex; per-shard load snapshots come
// from ServeEngine::load(), which is written under the shard's stats lock).
// start()/stop()/drain()/restart_shard() are driven from one controlling
// thread. stop() and drain() quiesce all shards in parallel — a cluster
// drains in the time of its slowest shard, not the sum.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/placement.hpp"
#include "model/weights.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/serve_engine.hpp"

namespace efld::cluster {

// Lifecycle of one shard slot. kRestarted is serving-wise identical to
// kHealthy — it only records that the slot's engine is a replacement, so
// stats/benches can tell a recovered cluster from an untouched one.
enum class ShardHealth { kHealthy, kFailed, kRestarted };

[[nodiscard]] constexpr std::string_view to_string(ShardHealth h) noexcept {
    switch (h) {
        case ShardHealth::kHealthy: return "healthy";
        case ShardHealth::kFailed: return "failed";
        case ShardHealth::kRestarted: return "restarted";
    }
    return "healthy";
}

struct ClusterOptions {
    // Every shard serves with this configuration. `shard.overload` (the
    // alert-driven OverloadGovernor, when set) is shared by all shards AND
    // read by the router itself: engaged, it stretches try_submit retry
    // hints by its scale and drops placement to the degraded mode (no
    // prefix-affinity probing) until the firing alert resolves.
    serve::ServeOptions shard;
    std::size_t shards = 2;
    PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
    // Base unit of try_submit's retry hint: the hint scales with the least
    // backlogged shard's in-flight count, so callers back off harder the
    // deeper the cluster-wide queue is.
    std::uint32_t retry_hint_ms = 10;
    // Per-shard fault-injection overrides for chaos tests: shard i
    // serves with fault spec shard_fault_specs[i] (empty string = fault-free;
    // shards past the vector's end inherit shard.fault_spec). A restarted
    // shard's replacement engine is always fault-free — the script killed the
    // device once, not its successors. Must not be longer than `shards`.
    std::vector<std::string> shard_fault_specs;
};

// Per-shard load snapshots plus cluster-wide aggregates. Shards are
// independent engines (one per device in deployment), so the cluster's
// modeled completion time for a drained workload is the SLOWEST shard's busy
// time, not the sum — which is what the aggregate throughput helpers divide
// by.
struct ClusterStats {
    std::vector<serve::ServeLoad> shards;
    // Health + fault/failover counters, taken in the same locked snapshot as
    // the per-shard loads. requests_failed_over counts harvested requests a
    // survivor accepted; requests_lost counts those the ROUTER had to resolve
    // kShardFailure (no survivor could take them) — losses resolved inside an
    // engine (submit races, teardown) appear in the per-shard
    // stats.requests_lost instead.
    std::vector<ShardHealth> health;
    std::size_t shard_failures = 0;
    std::size_t shard_restarts = 0;
    std::size_t requests_failed_over = 0;
    std::size_t requests_lost = 0;
    // Cluster-wide latency digests, derived by merging every shard's latency
    // HISTOGRAMS before summarizing (per-shard percentiles cannot be
    // averaged; bucket merges can). Per-shard digests stay available in
    // shards[i].queue_wait/ttft/e2e.
    obs::LatencySummary queue_wait;
    obs::LatencySummary ttft;
    obs::LatencySummary e2e;

    [[nodiscard]] std::size_t healthy_shards() const noexcept {
        std::size_t n = 0;
        for (const ShardHealth h : health) n += h != ShardHealth::kFailed ? 1 : 0;
        return n;
    }
    [[nodiscard]] std::size_t requests_resumed() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.requests_resumed;
        return n;
    }
    [[nodiscard]] std::size_t replayed_tokens() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.replayed_tokens;
        return n;
    }

    [[nodiscard]] std::size_t queued() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.queued;
        return n;
    }
    [[nodiscard]] std::size_t active() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.active;
        return n;
    }
    [[nodiscard]] std::size_t generated_tokens() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.generated_tokens;
        return n;
    }
    [[nodiscard]] std::size_t requests_completed() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.requests_completed;
        return n;
    }
    [[nodiscard]] std::size_t committed_pages() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.committed_pages;
        return n;
    }
    [[nodiscard]] std::size_t total_pages() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.total_pages;
        return n;
    }
    [[nodiscard]] std::size_t capacity_deferrals() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.capacity_deferrals;
        return n;
    }
    [[nodiscard]] std::size_t queue_promotions() const noexcept {
        std::size_t n = 0;
        for (const auto& s : shards) n += s.stats.queue_promotions;
        return n;
    }
    // Slowest shard's host time inside decode steps — the cluster's modeled
    // wall completion time with one core/device per shard.
    [[nodiscard]] double max_wall_ns() const noexcept {
        double m = 0.0;
        for (const auto& s : shards) m = s.stats.wall_ns > m ? s.stats.wall_ns : m;
        return m;
    }
    // Slowest shard's modeled device time (accel backend).
    [[nodiscard]] double max_simulated_ns() const noexcept {
        double m = 0.0;
        for (const auto& s : shards) {
            m = s.stats.simulated_ns > m ? s.stats.simulated_ns : m;
        }
        return m;
    }
    // Aggregate serving throughput with each shard on its own device: total
    // tokens over the slowest shard's busy time.
    [[nodiscard]] double isolated_tokens_per_s() const noexcept {
        const double ns = max_wall_ns();
        return ns > 0.0 ? static_cast<double>(generated_tokens()) * 1e9 / ns : 0.0;
    }
    [[nodiscard]] double simulated_cluster_tokens_per_s() const noexcept {
        const double ns = max_simulated_ns();
        return ns > 0.0 ? static_cast<double>(generated_tokens()) * 1e9 / ns : 0.0;
    }
};

class ClusterRouter {
public:
    // Builds opts.shards independent ServeEngines over the same (non-owning)
    // weights — each shard constructs its own backend through
    // engine::make_backend, and its own governor when paging. Throws
    // std::invalid_argument on zero shards or invalid shard options.
    ClusterRouter(const model::QuantizedModelWeights& weights, ClusterOptions opts);

    // Stops every shard driver (parking any shard errors) before teardown.
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter&) = delete;
    ClusterRouter& operator=(const ClusterRouter&) = delete;

    // Starts every shard's background driver. Throws if already started.
    void start();
    // Parallel-quiesces all shards: each driver joins on its own thread; the
    // first parked shard error (a callback exception) is rethrown after every
    // shard has stopped. Idempotent.
    void stop();
    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }

    // Routes the request to the placement policy's shard and submits it
    // there; the returned handle streams/cancels/awaits exactly as on a
    // single engine. Throws efld::Error when every shard is saturated (use
    // try_submit for backpressure) or when no shard's pool could ever hold
    // the demand.
    serve::RequestHandle submit(serve::Request req);

    // Non-throwing admission: 429-style backpressure instead of an exception
    // when every eligible shard's queue is full. `retry_hint` scales with the
    // cluster's backlog. Still throws on a demand no shard could EVER hold
    // (that is a malformed request, not transient pressure).
    struct SubmitOutcome {
        bool accepted = false;
        serve::RequestHandle handle;           // valid when accepted
        std::size_t shard = kNoShard;          // where it landed
        std::chrono::milliseconds retry_hint{0};  // when rejected
    };
    SubmitOutcome try_submit(serve::Request req);

    // Blocks until every shard is idle (queue empty, no active sessions).
    // Shards drain in parallel; without start() each drains inline on its own
    // thread, so manual-stepping clusters drain multi-threaded too.
    void drain();

    // Replaces a FAILED shard's engine with a freshly built one (same shard
    // options, fault spec cleared — the replacement is not scripted to die).
    // Joins the dead engine's driver first, starts the replacement's driver
    // when the cluster is running, and marks the slot kRestarted — it is
    // serving-eligible from the moment this returns. Throws efld::Error when
    // the shard is not in kFailed (restarting a live engine would drop its
    // work), std::out_of_range on a bad index. Controlling-thread only, like
    // start()/stop().
    void restart_shard(std::size_t i);
    // Post-failure observer (the flight recorder's shard-kill trigger):
    // invoked once per shard failure, AFTER the failover sweep has resolved
    // or re-placed every displaced request — so a capture taken inside the
    // callback sees the harvest/resubmit trace events. Runs on the dying
    // shard's driver thread; register before start().
    using FailureObserver = std::function<void(std::size_t shard)>;
    void set_failure_observer(FailureObserver cb);
    // The slot's health, and the backend fault that killed it (null unless a
    // failure was recorded; cleared again by restart_shard — the fault
    // belonged to the corpse, not the replacement). Safe from any thread.
    [[nodiscard]] ShardHealth shard_health(std::size_t i) const;
    [[nodiscard]] std::exception_ptr shard_error(std::size_t i) const;

    // One load snapshot per shard, taken live (safe while drivers run).
    [[nodiscard]] ClusterStats stats() const;

    // Cluster metrics for exposition (the kMetrics wire frame): every
    // shard's metrics_snapshot() merged — counters and histogram buckets
    // sum across shards — plus the router's own placement/failover/health
    // series (cluster_shard_failures, cluster_requests_failed_over,
    // cluster_healthy_shards, ...). Safe from any thread.
    [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

    // Every shard's retained profiler spans in one flat vector (each span
    // already carries its shard id) — the flight recorder's timeline feed.
    // Taken under the placement lock so a restart cannot swap an engine
    // mid-walk. Safe from any thread.
    [[nodiscard]] std::vector<obs::SpanRecord> profiler_spans() const;

    // Cluster timeline as Chrome-trace-event JSON (the kTraceDump wire
    // frame): the shared trace ring's lifecycle events plus every shard's
    // profiler spans, stitched into one Perfetto-loadable file — pid = shard,
    // flow arrows follow a request id across a failover. Empty-but-valid
    // JSON when no trace ring is configured. Safe from any thread.
    [[nodiscard]] std::string trace_json() const;

    [[nodiscard]] std::size_t shard_count() const noexcept {
        return shards_.size();
    }
    [[nodiscard]] serve::ServeEngine& shard(std::size_t i) { return *shards_[i]; }
    [[nodiscard]] const serve::ServeEngine& shard(std::size_t i) const {
        return *shards_[i];
    }
    [[nodiscard]] const ClusterOptions& options() const noexcept { return opts_; }
    [[nodiscard]] std::string_view placement_name() const noexcept {
        return placement_->name();
    }

private:
    // Worst-case page demand of a tokenized prompt on any shard (uniform
    // shard configuration), 0 without paging.
    [[nodiscard]] std::size_t predict_demand(
        std::span<const std::int32_t> prompt_tokens,
        std::size_t max_new_tokens) const;
    // Failure-callback body for shard i: marks it kFailed (idempotent),
    // harvests its unfinished requests, and fails them over to survivors.
    // Runs on the failed shard's driver thread.
    void handle_shard_failure(std::size_t i, const std::exception_ptr& e);
    void wire_failure_callback(std::size_t i);
    [[nodiscard]] const std::string& fault_spec_for(std::size_t i) const;

    ClusterOptions opts_;
    const model::QuantizedModelWeights* weights_ = nullptr;  // for restarts
    std::unique_ptr<Placement> placement_;
    std::vector<std::unique_ptr<serve::ServeEngine>> shards_;
    // place_mu_ serializes placement + enqueue, and guards shards_ slot
    // swaps (restart), health_, shard_errors_, and the fault counters.
    mutable std::mutex place_mu_;
    std::vector<ShardHealth> health_;
    std::vector<std::exception_ptr> shard_errors_;
    std::size_t shard_failures_ = 0;
    std::size_t shard_restarts_ = 0;
    std::size_t requests_failed_over_ = 0;
    std::size_t requests_lost_ = 0;
    FailureObserver failure_observer_;  // guarded by place_mu_
    std::atomic<bool> running_{false};
};

}  // namespace efld::cluster
