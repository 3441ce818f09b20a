#include "cluster/cluster_router.hpp"

#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/exposition.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/process_metrics.hpp"

namespace efld::cluster {

namespace {

ShardLoad to_shard_load(const serve::ServeLoad& l) {
    ShardLoad s;
    s.queued = l.queued;
    s.queue_capacity = l.queue_capacity;
    s.active = l.active;
    s.healthy = !l.failed;
    s.paging = l.paging;
    s.committed_pages = l.committed_pages;
    s.queued_pages = l.queued_pages;
    s.total_pages = l.total_pages;
    s.shared_pages = l.shared_pages;
    return s;
}

// Terminal resolution for a harvested request no survivor could take: the
// router owns it now, so the router must resolve it — kShardFailure, partial
// tokens preserved, so the caller's handle returns instead of hanging.
void resolve_lost_request(serve::PendingRequest&& req,
                          const model::ByteTokenizer& tok) {
    serve::ServeResult r;
    r.id = req.id;
    r.tokens = std::move(req.resumed);
    r.text = tok.decode(r.tokens);
    r.prompt_tokens = req.prompt.size();
    r.finish_reason = serve::FinishReason::kShardFailure;
    r.times_deferred = req.times_deferred;
    r.failovers = req.failovers;
    try {
        req.promise.set_value(std::move(r));
    } catch (const std::future_error&) {
        // Already resolved elsewhere; nothing to deliver.
    }
}

}  // namespace

ClusterRouter::ClusterRouter(const model::QuantizedModelWeights& weights,
                             ClusterOptions opts)
    : opts_(std::move(opts)), weights_(&weights) {
    if (opts_.shards == 0) {
        throw std::invalid_argument("ClusterRouter: shards must be >= 1");
    }
    if (opts_.retry_hint_ms == 0) {
        throw std::invalid_argument(
            "ClusterRouter: retry_hint_ms must be >= 1 (a zero hint tells "
            "rejected callers to hammer the router)");
    }
    if (opts_.shard_fault_specs.size() > opts_.shards) {
        throw std::invalid_argument(
            "ClusterRouter: more shard_fault_specs than shards");
    }
    placement_ = make_placement(opts_.placement);
    shards_.reserve(opts_.shards);
    health_.assign(opts_.shards, ShardHealth::kHealthy);
    shard_errors_.resize(opts_.shards);
    for (std::size_t i = 0; i < opts_.shards; ++i) {
        serve::ServeOptions shard_opts = opts_.shard;
        shard_opts.fault_spec = fault_spec_for(i);
        // Shards share the cluster's trace ring and clock (whatever the
        // caller put in opts_.shard — shared_ptr copies); the shard id tags
        // each engine's trace events so cross-shard failover reads cleanly.
        shard_opts.shard_id = static_cast<std::uint32_t>(i);
        // Disjoint id namespaces (shard index in the top 16 bits): a request
        // id identifies ONE request cluster-wide, which the shared trace
        // ring and failover resubmission both depend on.
        shard_opts.id_base = static_cast<std::uint64_t>(i) << 48;
        shards_.push_back(
            std::make_unique<serve::ServeEngine>(weights, shard_opts));
        wire_failure_callback(i);
    }
}

const std::string& ClusterRouter::fault_spec_for(std::size_t i) const {
    return i < opts_.shard_fault_specs.size() ? opts_.shard_fault_specs[i]
                                              : opts_.shard.fault_spec;
}

void ClusterRouter::wire_failure_callback(std::size_t i) {
    shards_[i]->set_on_failure([this, i](const std::exception_ptr& e) {
        handle_shard_failure(i, e);
    });
}

void ClusterRouter::set_failure_observer(FailureObserver cb) {
    const std::lock_guard<std::mutex> lock(place_mu_);
    failure_observer_ = std::move(cb);
}

void ClusterRouter::handle_shard_failure(std::size_t i,
                                         const std::exception_ptr& e) {
    FailureObserver observer;
    {
        const std::lock_guard<std::mutex> lock(place_mu_);
        if (health_[i] == ShardHealth::kFailed) return;  // already handled
        health_[i] = ShardHealth::kFailed;
        shard_errors_[i] = e;
        ++shard_failures_;
        observer = failure_observer_;
    }
    std::string why = "unknown fault";
    if (e != nullptr) {
        try {
            std::rethrow_exception(e);
        } catch (const std::exception& ex) {
            why = ex.what();
        } catch (...) {
        }
    }
    log_warn("shard ", i, " failed: ", why);
    // Harvest outside the lock (the engine marked itself failed before
    // invoking this callback, so nothing new lands on it). restart_shard()
    // cannot swap this slot underneath us: it joins the failed driver — the
    // thread running THIS handler — before touching the pointer.
    std::vector<serve::PendingRequest> displaced = shards_[i]->take_unfinished();
    if (displaced.empty()) {
        // The black-box capture happens after failover settles — here that
        // is immediately, there was nothing to displace.
        if (observer) observer(i);
        return;
    }

    // Fail each request over through the normal placement policy, restricted
    // to surviving shards. A request placement refuses (or every survivor's
    // resubmit declines) is lost — resolved here so its handle still returns.
    std::unique_lock<std::mutex> lock(place_mu_);
    for (serve::PendingRequest& req : displaced) {
        // resubmit() consumes req on success — capture what the log needs
        // before placement runs.
        const std::uint64_t req_id = req.id;
        const std::size_t resumed_tokens = req.resumed.size();
        const std::size_t demand = predict_demand(req.prompt, req.max_new_tokens);
        std::vector<ShardLoad> loads;
        loads.reserve(shards_.size());
        for (std::size_t j = 0; j < shards_.size(); ++j) {
            loads.push_back(to_shard_load(shards_[j]->load()));
            if (health_[j] == ShardHealth::kFailed) loads.back().healthy = false;
            // Probe survivors for this prompt's prefix so affinity placement
            // can rebuild the displaced session from a shared index instead
            // of re-prefilling from scratch.
            if (opts_.shard.prefix_sharing && loads.back().healthy) {
                loads.back().prefix_covered_tokens =
                    shards_[j]->probe_prefix(req.prompt);
            }
        }
        bool placed = false;
        const std::size_t pick = placement_->pick(loads, demand);
        if (pick != kNoShard && shards_[pick]->resubmit(req)) {
            placed = true;
        } else {
            // The policy's pick declined (raced its own failure, queue full):
            // any survivor with room will do before declaring the request lost.
            for (std::size_t j = 0; j < shards_.size() && !placed; ++j) {
                if (j == i || !loads[j].healthy) continue;
                placed = shards_[j]->resubmit(req);
            }
        }
        // LogScope tags these lines with the displaced request's id — the
        // same id the trace ring carries, so a failover reads end-to-end
        // across logs and trace dumps.
        const LogScope scope(req_id);
        if (placed) {
            ++requests_failed_over_;
            log_info("failed over request from shard ", i, " (",
                     resumed_tokens, " tokens resumed)");
        } else {
            ++requests_lost_;
            log_warn("request lost with shard ", i,
                     ": no survivor could take it");
            resolve_lost_request(std::move(req), shards_[i]->tokenizer());
        }
    }
    lock.unlock();
    // Outside place_mu_: the observer snapshots cluster metrics (which takes
    // the same lock) for its flight bundle.
    if (observer) observer(i);
}

ClusterRouter::~ClusterRouter() {
    try {
        stop();
    } catch (...) {
        // A parked shard error has nowhere to go from a destructor.
    }
}

void ClusterRouter::start() {
    check(!running(), "ClusterRouter: already started");
    for (auto& s : shards_) s->run();
    running_.store(true, std::memory_order_release);
}

void ClusterRouter::stop() {
    // Parallel quiesce: every shard joins its driver on its own thread, so a
    // cluster stops in the time of its slowest shard. Shard errors (parked
    // callback exceptions rethrown by ServeEngine::stop) are collected and
    // the first is rethrown once every shard has actually stopped — an
    // exploding callback on shard 0 must not leave shard 3 running.
    std::vector<std::exception_ptr> errors(shards_.size());
    std::vector<std::thread> joiners;
    joiners.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        joiners.emplace_back([this, i, &errors] {
            try {
                shards_[i]->stop();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (auto& t : joiners) t.join();
    running_.store(false, std::memory_order_release);
    for (const std::exception_ptr& e : errors) {
        if (e != nullptr) std::rethrow_exception(e);
    }
}

ShardHealth ClusterRouter::shard_health(std::size_t i) const {
    const std::lock_guard<std::mutex> lock(place_mu_);
    return health_.at(i);
}

std::exception_ptr ClusterRouter::shard_error(std::size_t i) const {
    const std::lock_guard<std::mutex> lock(place_mu_);
    return shard_errors_.at(i);
}

void ClusterRouter::restart_shard(std::size_t i) {
    {
        const std::lock_guard<std::mutex> lock(place_mu_);
        check(health_.at(i) == ShardHealth::kFailed,
              "ClusterRouter: restart_shard on a shard that has not failed "
              "(restarting a live engine would drop its work)");
    }
    // Build the replacement OUTSIDE the lock — backend construction is the
    // expensive part (the accel path packs the whole weight image) and the
    // surviving shards keep serving through it.
    serve::ServeOptions shard_opts = opts_.shard;
    shard_opts.fault_spec.clear();  // the script killed the device, not its heirs
    shard_opts.shard_id = static_cast<std::uint32_t>(i);
    // Fresh id sub-namespace (restart generation in bits 32..47): the
    // replacement must not reuse ids its dead predecessor already issued, or
    // the shared trace ring would merge two requests' stories.
    {
        const std::lock_guard<std::mutex> lock(place_mu_);
        shard_opts.id_base = (static_cast<std::uint64_t>(i) << 48) |
                             (static_cast<std::uint64_t>(shard_restarts_ + 1) << 32);
    }
    auto fresh = std::make_unique<serve::ServeEngine>(*weights_, shard_opts);
    // Quiesce the corpse. Its driver exited when the backend faulted; the
    // join also barriers against the failure handler still running on that
    // thread, so the slot swap below cannot race the harvest. NOT under
    // place_mu_: the handler needs that lock to finish.
    try {
        shards_[i]->stop();
    } catch (...) {
        // A parked callback error from the dead engine; the fault itself is
        // already recorded in shard_errors_.
    }
    {
        const std::lock_guard<std::mutex> lock(place_mu_);
        std::swap(shards_[i], fresh);  // corpse destroyed after the lock drops
        wire_failure_callback(i);
        health_[i] = ShardHealth::kRestarted;
        shard_errors_[i] = nullptr;  // the fault died with the corpse
        ++shard_restarts_;
    }
    // The replacement joins the serving rotation the way start() does.
    if (running()) shards_[i]->run();
}

std::size_t ClusterRouter::predict_demand(std::span<const std::int32_t> prompt_tokens,
                                          std::size_t max_new_tokens) const {
    if (!opts_.shard.paging) return 0;
    // Shards are uniformly configured, so any governor prices the demand.
    const kvpool::CapacityGovernor* g = shards_.front()->governor();
    return g->predict_pages(prompt_tokens.size(), max_new_tokens);
}

ClusterRouter::SubmitOutcome ClusterRouter::try_submit(serve::Request req) {
    // Accepted costs at embedded-cluster scale: placement serializes on one
    // mutex and snapshots every shard (with paging, load() walks each queue
    // to price queued demand — O(shards x queue depth) per submission), and
    // predict_demand's tokenization is repeated by the shard's submit. A
    // higher-fanout router would keep incremental queued-demand counters and
    // thread the encoded prompt through.
    const std::lock_guard<std::mutex> lock(place_mu_);
    // Under the lock: the tokenizer and governor reads go through shard 0,
    // and restart_shard may swap that very engine.
    const std::vector<std::int32_t> prompt_tokens =
        shards_.front()->tokenizer().encode(req.prompt);
    const std::size_t demand = predict_demand(prompt_tokens, req.max_new_tokens);
    std::vector<ShardLoad> loads;
    loads.reserve(shards_.size());
    bool any_healthy = false;
    bool could_ever_fit = false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        loads.push_back(to_shard_load(shards_[i]->load()));
        // Belt and braces: the engine's own failed flag (which can lead the
        // router's bookkeeping by the width of the failure callback) and the
        // router's health state must both clear for a shard to count.
        if (health_[i] == ShardHealth::kFailed) loads.back().healthy = false;
        any_healthy = any_healthy || loads.back().healthy;
        could_ever_fit = could_ever_fit ||
                         (loads.back().healthy && loads.back().ever_fits(demand));
        // Per-decision affinity signal: how much of THIS prompt the shard's
        // prefix index already holds. Healthy shards only — a dead shard's
        // cached prefix is not capacity. Under an engaged overload governor
        // the probe is skipped (degraded placement): per-shard prefix probes
        // are the expensive part of placement, and an overloaded cluster
        // trades affinity for admission latency.
        const bool degrade = opts_.shard.overload != nullptr &&
                             opts_.shard.overload->engaged();
        if (opts_.shard.prefix_sharing && !degrade && loads.back().healthy) {
            loads.back().prefix_covered_tokens =
                shards_[i]->probe_prefix(prompt_tokens);
        }
    }
    // A cluster with no surviving shard cannot promise retrying will help —
    // that is an outage, not backpressure.
    check(any_healthy, "ClusterRouter: every shard has failed");
    // Permanent impossibility is a malformed request, not backpressure: no
    // amount of retrying shrinks a demand past every surviving shard's pool.
    check(could_ever_fit,
          "ClusterRouter: prompt + max_new demand exceeds every shard's KV pool");

    SubmitOutcome out;
    const std::size_t idx = placement_->pick(loads, demand);
    if (idx == kNoShard) {
        // Every eligible queue is full: 429. Hint scales with the shallowest
        // HEALTHY backlog — a dead shard's empty queue is not capacity.
        std::size_t min_inflight = std::numeric_limits<std::size_t>::max();
        for (const ShardLoad& l : loads) {
            if (!l.healthy) continue;
            min_inflight = l.inflight() < min_inflight ? l.inflight() : min_inflight;
        }
        double hint_ms =
            static_cast<double>(opts_.retry_hint_ms * (1 + min_inflight));
        // An engaged governor stretches the hint: rejected callers back off
        // harder while the cluster is shedding, which drains the overload
        // faster than optimistic retries would.
        if (opts_.shard.overload != nullptr) {
            hint_ms *= opts_.shard.overload->retry_hint_scale();
        }
        out.retry_hint =
            std::chrono::milliseconds(static_cast<std::int64_t>(hint_ms));
        return out;
    }
    check(idx < shards_.size(), "ClusterRouter: placement pick out of range");
    // Under place_mu_ only the router pushes to shard queues and the snapshot
    // above saw headroom, so this submit cannot hit a full queue; request
    // validation errors (empty prompt, context overflow) still propagate.
    out.handle = shards_[idx]->submit(std::move(req));
    out.accepted = true;
    out.shard = idx;
    return out;
}

serve::RequestHandle ClusterRouter::submit(serve::Request req) {
    SubmitOutcome out = try_submit(std::move(req));
    check(out.accepted,
          "ClusterRouter: every shard is saturated; use try_submit() for "
          "backpressure instead of exceptions");
    return std::move(out.handle);
}

void ClusterRouter::drain() {
    // Parallel drain: with drivers running each thread waits on its shard's
    // idle signal; without drivers wait_until_idle() steps the shard inline,
    // so even a manual-stepping cluster drains with one thread per shard.
    // Inline stepping rethrows on_token callback exceptions — catch them per
    // waiter (an exception escaping a std::thread is std::terminate) and
    // surface the first once every shard has been waited on.
    std::vector<std::exception_ptr> errors(shards_.size());
    std::vector<std::thread> waiters;
    waiters.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        waiters.emplace_back([this, i, &errors] {
            try {
                shards_[i]->wait_until_idle();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (auto& t : waiters) t.join();
    for (const std::exception_ptr& e : errors) {
        if (e != nullptr) std::rethrow_exception(e);
    }
}

ClusterStats ClusterRouter::stats() const {
    // Under place_mu_: the loads, health vector, and fault counters form one
    // consistent snapshot, and a restart cannot swap a shard mid-walk.
    const std::lock_guard<std::mutex> lock(place_mu_);
    ClusterStats cs;
    cs.shards.reserve(shards_.size());
    for (const auto& s : shards_) cs.shards.push_back(s->load());
    cs.health = health_;
    cs.shard_failures = shard_failures_;
    cs.shard_restarts = shard_restarts_;
    cs.requests_failed_over = requests_failed_over_;
    cs.requests_lost = requests_lost_;
    // Cluster percentiles: merge the shard HISTOGRAMS, then summarize — the
    // only way p50/p95/p99 compose across shards.
    obs::HistogramSnapshot queue_wait;
    obs::HistogramSnapshot ttft;
    obs::HistogramSnapshot e2e;
    for (const auto& s : shards_) {
        const obs::MetricsSnapshot m = s->metrics().snapshot();
        if (auto it = m.histograms.find("serve_queue_wait_ns");
            it != m.histograms.end()) {
            queue_wait.merge(it->second);
        }
        if (auto it = m.histograms.find("serve_ttft_ns"); it != m.histograms.end()) {
            ttft.merge(it->second);
        }
        if (auto it = m.histograms.find("serve_e2e_ns"); it != m.histograms.end()) {
            e2e.merge(it->second);
        }
    }
    cs.queue_wait = obs::LatencySummary::from(queue_wait);
    cs.ttft = obs::LatencySummary::from(ttft);
    cs.e2e = obs::LatencySummary::from(e2e);
    return cs;
}

obs::MetricsSnapshot ClusterRouter::metrics_snapshot() const {
    const std::lock_guard<std::mutex> lock(place_mu_);
    obs::MetricsSnapshot out;
    for (const auto& s : shards_) out.merge(s->metrics_snapshot());
    std::size_t healthy = 0;
    for (const ShardHealth h : health_) healthy += h != ShardHealth::kFailed;
    out.set_counter("cluster_shard_failures", shard_failures_);
    out.set_counter("cluster_shard_restarts", shard_restarts_);
    out.set_counter("cluster_requests_failed_over", requests_failed_over_);
    out.set_counter("cluster_requests_lost", requests_lost_);
    out.set_gauge("cluster_shards", static_cast<double>(shards_.size()));
    out.set_gauge("cluster_healthy_shards", static_cast<double>(healthy));
    // The shards SHARE one trace ring, so the per-shard merge above summed
    // the same drop counter N times — overwrite with the ring's true value.
    if (opts_.shard.trace) {
        out.set_counter("serve_trace_dropped_total", opts_.shard.trace->dropped());
    }
    // Process-level gauges live here, not in the shards: gauges ADD on merge,
    // and there is one process no matter how many shards it hosts.
    obs::export_process_metrics(out);
    if (opts_.shard.overload != nullptr) {
        const serve::OverloadGovernor& g = *opts_.shard.overload;
        out.set_gauge("cluster_overload_engaged", g.engaged() ? 1.0 : 0.0);
        out.set_counter("cluster_overload_engagements_total", g.engagements());
        out.set_counter("cluster_overload_shed_total", g.shed_total());
    }
    return out;
}

std::vector<obs::SpanRecord> ClusterRouter::profiler_spans() const {
    const std::lock_guard<std::mutex> lock(place_mu_);
    std::vector<obs::SpanRecord> out;
    for (const auto& s : shards_) {
        const std::vector<obs::SpanRecord> spans = s->profiler().spans();
        out.insert(out.end(), spans.begin(), spans.end());
    }
    return out;
}

std::string ClusterRouter::trace_json() const {
    std::vector<obs::TraceRecord> lifecycle;
    if (opts_.shard.trace) lifecycle = opts_.shard.trace->snapshot();
    std::vector<obs::ShardSpans> spans;
    {
        // Under place_mu_: restart_shard may swap an engine mid-walk.
        const std::lock_guard<std::mutex> lock(place_mu_);
        spans.reserve(shards_.size());
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            obs::ShardSpans s;
            s.shard = static_cast<std::uint32_t>(i);
            s.spans = shards_[i]->profiler().spans();
            spans.push_back(std::move(s));
        }
    }
    return obs::to_perfetto_json(lifecycle, spans);
}

}  // namespace efld::cluster
