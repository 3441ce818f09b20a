#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "accel/cycle_model.hpp"
#include "cluster/cluster_router.hpp"
#include "cluster/socket_frontend.hpp"
#include "model/weights.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "runtime/memory_planner.hpp"
#include "serve/serve_engine.hpp"

namespace efld::bench {

namespace {

constexpr std::size_t kSetups = 3;  // at least this many set-ups per run
constexpr std::uint64_t kWeightSeed = 42;
// Parity: the first measured requests rerun alone, with the budget capped
// (a capped rerun must reproduce the loaded run's token prefix exactly).
constexpr std::size_t kParityRequests = 4;
constexpr std::size_t kParityTokens = 16;
// Rate-ladder SLO: a rung passes when TTFT p90 and ITL p99 stay within these
// and no request failed.
constexpr double kSloTtftP90Ms = 650.0;
constexpr double kSloItlP99Ms = 10.0;
constexpr std::uint64_t kSampleEveryNs = 50'000'000;  // router.stats() (traced)
constexpr double kInf = std::numeric_limits<double>::infinity();

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::chrono::steady_clock::time_point at(std::uint64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

std::size_t threads_up_to(std::size_t want) {
    return std::min<std::size_t>(want, std::max(1u, std::thread::hardware_concurrency()));
}

// 51 M parameters, ~52 MB of host weights: larger than a core's L2, and
// large enough that batch-1 decode walks a real weight set every token.
model::ModelConfig bench_m() {
    model::ModelConfig c;
    c.name = "bench-m";
    c.dim = 768;
    c.n_layers = 8;
    c.n_heads = 12;
    c.n_kv_heads = 4;
    c.hidden_dim = 2048;
    c.vocab_size = 512;
    c.max_seq_len = 1024;
    return c;
}

// Members destroy in reverse order: server, router (joins the shard
// drivers), then the weights the shards read.
struct Deployment {
    std::unique_ptr<model::QuantizedModelWeights> weights;
    std::unique_ptr<cluster::ClusterRouter> router;
    std::unique_ptr<cluster::SocketServer> server;
};

// ServeEngine::stop() sets its stop flag and notifies the queue without the
// queue's mutex, so a driver caught between its idle check and its wait
// misses the wake-up and stop() never returns (README, findings). A freshly
// started router is given time to park its drivers before it is stopped.
void let_drivers_park() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

// Builds the deployment several times — weights synthesized and quantized,
// router built and started, socket listening — and keeps the last one: at
// least kSetups times, and cheap deployments until a second of set-up has
// been sampled (at most 15), so setup_s is a median over several set-ups.
std::unique_ptr<Deployment> deploy(Report& rep, const model::ModelConfig& cfg,
                                   const cluster::ClusterOptions& opts, bool socket) {
    Samples setup_s, weights_s, start_s;
    std::unique_ptr<Deployment> d;
    double spent_s = 0.0;
    while (setup_s.size() < kSetups || (setup_s.size() < 15 && spent_s < 1.0)) {
        if (d != nullptr) let_drivers_park();
        d.reset();
        const std::uint64_t t0 = now_ns();
        d = std::make_unique<Deployment>();
        {
            const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, kWeightSeed);
            d->weights = std::make_unique<model::QuantizedModelWeights>(
                model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{}));
        }
        const std::uint64_t t1 = now_ns();
        d->router = std::make_unique<cluster::ClusterRouter>(*d->weights, opts);
        d->router->start();
        if (socket) {
            d->server = std::make_unique<cluster::SocketServer>(*d->router);
            d->server->start();
        }
        const std::uint64_t t2 = now_ns();
        setup_s.add(to_s(t2 - t0));
        weights_s.add(to_s(t1 - t0));
        start_s.add(to_s(t2 - t1));
        spent_s += to_s(t2 - t0);
    }
    rep.e2e("setup_s", setup_s.median(), "s", setup_s.size());
    rep.layer("runtime.weights_setup_s", weights_s.median(), "s", weights_s.size());
    rep.layer("cluster.start_s", start_s.median(), "s", start_s.size());
    return d;
}

cluster::ClusterOptions cluster_options(std::size_t shards, bool traced) {
    cluster::ClusterOptions o;
    o.shards = shards;
    o.shard.profile = traced;
    if (traced) o.shard.trace = std::make_shared<obs::TraceRecorder>(std::size_t{1} << 16);
    return o;
}

// Samples the router's load every 50 ms while the load runs (traced runs
// only; a null router makes every call a no-op).
class LoadSampler {
public:
    explicit LoadSampler(const cluster::ClusterRouter* router) : router_(router) {}

    [[nodiscard]] bool on() const noexcept { return router_ != nullptr; }
    [[nodiscard]] std::uint64_t next_ns() const noexcept { return next_ns_; }

    void poll() {
        if (router_ == nullptr || now_ns() < next_ns_) return;
        next_ns_ = now_ns() + kSampleEveryNs;
        const cluster::ClusterStats cs = router_->stats();
        std::size_t shared = 0;
        for (const auto& s : cs.shards) shared += s.shared_pages;
        const double frac = cs.total_pages() > 0
                                ? static_cast<double>(cs.committed_pages()) /
                                      static_cast<double>(cs.total_pages())
                                : 0.0;
        committed_.add(frac);
        committed_peak_ = std::max(committed_peak_, frac);
        sessions_peak_ = std::max(sessions_peak_, cs.active());
        shared_peak_ = std::max(shared_peak_, shared);
    }

    void report(Report& rep) const {
        rep.layer("kvpool.committed_frac_mean", committed_.mean(), "ratio", committed_.size());
        rep.layer("kvpool.committed_frac_peak", committed_peak_, "ratio", committed_.size());
        rep.layer("kvpool.peak_sessions", static_cast<double>(sessions_peak_), "count",
                  committed_.size());
        rep.layer("kvpool.shared_pages_peak", static_cast<double>(shared_peak_), "count",
                  committed_.size());
    }

private:
    const cluster::ClusterRouter* router_;
    std::uint64_t next_ns_ = 0;
    Samples committed_;
    double committed_peak_ = 0.0;
    std::size_t sessions_peak_ = 0;
    std::size_t shared_peak_ = 0;
};

void sleep_until(std::uint64_t t_ns, LoadSampler& s) {
    for (;;) {
        s.poll();
        if (now_ns() >= t_ns) return;
        std::this_thread::sleep_until(at(s.on() ? std::min(t_ns, s.next_ns()) : t_ns));
    }
}

const serve::ServeResult& await(const serve::RequestHandle& h, LoadSampler& s) {
    if (s.on()) {
        const std::shared_future<serve::ServeResult> f = h.future();
        s.poll();
        while (f.wait_until(at(s.next_ns())) != std::future_status::ready) s.poll();
    }
    return h.get();
}

// Hands out request indices to closed-loop clients. Once the time budget is
// spent it only completes the current block, so every run serves whole
// strata blocks of the traffic.
class WorkCursor {
public:
    WorkCursor(std::uint64_t deadline_ns, std::size_t block)
        : deadline_ns_(deadline_ns), block_(block) {}

    std::optional<std::size_t> take() {
        const std::lock_guard<std::mutex> lock(mu_);
        if (limit_ == kOpen && now_ns() >= deadline_ns_) {
            limit_ = (next_ + block_ - 1) / block_ * block_;
        }
        if (next_ >= limit_) return std::nullopt;
        return next_++;
    }

private:
    static constexpr std::size_t kOpen = std::numeric_limits<std::size_t>::max();
    const std::uint64_t deadline_ns_;
    const std::size_t block_;
    std::mutex mu_;
    std::size_t next_ = 0;
    std::size_t limit_ = kOpen;
};

// One in-process request from send to retirement. on_token runs on the
// shard's driver thread and only appends to token_ns (reserved up front);
// the generator reads it after the handle resolves.
struct Tracked {
    std::size_t spec = 0;
    std::uint64_t due_ns = 0;  // open loop: schedule; closed loop: send time
    std::uint64_t sent_ns = 0;
    std::uint64_t returned_ns = 0;  // try_submit returned
    std::vector<std::uint64_t> token_ns;
    serve::RequestHandle handle;
    bool accepted = false;
    bool rejected = false;
    std::vector<std::int32_t> tokens;
};

void submit(cluster::ClusterRouter& router, const RequestSpec& spec, Tracked& t) {
    serve::Request req;
    req.prompt = spec.prompt;
    req.max_new_tokens = spec.max_new;
    t.token_ns.reserve(spec.max_new + 1);
    Tracked* tp = &t;
    req.on_token = [tp](std::int32_t, std::string_view) { tp->token_ns.push_back(now_ns()); };
    t.sent_ns = now_ns();
    try {
        cluster::ClusterRouter::SubmitOutcome out = router.try_submit(std::move(req));
        t.accepted = out.accepted;
        t.rejected = !out.accepted;
        t.handle = std::move(out.handle);
    } catch (const std::exception&) {
        // Errored: neither accepted nor rejected; counted as failed.
    }
    t.returned_ns = now_ns();
}

// Latency samples and counts of a set of requests.
struct Tally {
    Samples ttft, itl, req, submit_us;  // ms, except submit_us
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0;
    std::size_t tokens = 0;
    std::uint64_t first_due_ns = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t last_token_ns = 0;

    void fail(bool was_rejected) {
        ++failed;
        rejected += was_rejected ? 1 : 0;
        ttft.add(kInf);
        itl.add(kInf);
        req.add(kInf);
    }

    void merge(const Tally& o) {
        ttft.merge(o.ttft);
        itl.merge(o.itl);
        req.merge(o.req);
        submit_us.merge(o.submit_us);
        attempted += o.attempted;
        failed += o.failed;
        rejected += o.rejected;
        tokens += o.tokens;
        first_due_ns = std::min(first_due_ns, o.first_due_ns);
        last_token_ns = std::max(last_token_ns, o.last_token_ns);
    }
};

// Waits for t and accounts it. Every accepted request must retire on its
// budget or EOS, and on_token must have fired exactly once per token.
void complete(Tracked& t, Tally& tally, LoadSampler& s, SpanLog* spans) {
    ++tally.attempted;
    tally.first_due_ns = std::min(tally.first_due_ns, t.due_ns);
    tally.submit_us.add(static_cast<double>(t.returned_ns - t.sent_ns) / 1e3);
    if (!t.accepted) {
        tally.fail(t.rejected);
        return;
    }
    const serve::ServeResult& r = await(t.handle, s);
    t.tokens = r.tokens;
    const bool finished = r.finish_reason == serve::FinishReason::kBudget ||
                          r.finish_reason == serve::FinishReason::kEos;
    if (!finished || r.tokens.empty() || r.tokens.size() != t.token_ns.size()) {
        tally.fail(false);
        return;
    }
    tally.ttft.add(to_ms(t.token_ns.front() - t.due_ns));
    for (std::size_t i = 1; i < t.token_ns.size(); ++i) {
        tally.itl.add(to_ms(t.token_ns[i] - t.token_ns[i - 1]));
    }
    tally.req.add(to_ms(t.token_ns.back() - t.due_ns));
    tally.tokens += r.tokens.size();
    tally.last_token_ns = std::max(tally.last_token_ns, t.token_ns.back());
    if (spans != nullptr) {
        spans->request("submit", t.handle.id(), t.sent_ns, t.returned_ns);
        spans->request("due_to_first_token", t.handle.id(), t.due_ns, t.token_ns.front());
        spans->request("first_to_last_token", t.handle.id(), t.token_ns.front(),
                       t.token_ns.back());
    }
}

void report_latency(Report& rep, const Tally& t) {
    rep.percentiles("ttft", t.ttft, {50, 90});
    rep.percentiles("itl", t.itl, {50, 99});
    rep.percentiles("req", t.req, {50, 90});
}

// The first measured requests rerun alone, each on a fresh single-slot
// engine (same backend and weights, no paging, no sharing): batching, paging,
// prefix adoption and thread count must not change a single token. The
// engines run one thread each, side by side.
void check_parity(Report& rep, const model::QuantizedModelWeights& qw,
                  const serve::ServeOptions& shard, const Traffic& tr,
                  const std::vector<std::pair<std::size_t, std::vector<std::int32_t>>>& runs) {
    serve::ServeOptions o;
    o.backend = shard.backend;
    o.use_kv8 = shard.use_kv8;
    o.kv_bits = shard.kv_bits;
    o.sampler = shard.sampler;
    o.max_batch = 1;
    const std::size_t n = std::min(runs.size(), kParityRequests);
    std::vector<char> same(n, 0);
    std::vector<std::jthread> threads;  // joined on every path
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                const auto& [spec_index, loaded] = runs[i];
                const RequestSpec& spec = tr.requests[spec_index];
                const std::size_t budget = std::min(spec.max_new, kParityTokens);
                serve::ServeEngine eng(qw, o);
                serve::Request req;
                req.prompt = spec.prompt;
                req.max_new_tokens = budget;
                const serve::RequestHandle h = eng.submit(std::move(req));
                eng.run_until_idle();
                const auto end = loaded.begin() + static_cast<std::ptrdiff_t>(
                                                      std::min(loaded.size(), budget));
                same[i] = h.get().tokens == std::vector<std::int32_t>(loaded.begin(), end);
            } catch (const std::exception&) {
                same[i] = 0;
            }
        });
    }
    for (std::jthread& t : threads) t.join();
    rep.check("parity_rerun_alone",
              n == std::min(kParityRequests, tr.requests.size()) &&
                  std::all_of(same.begin(), same.end(), [](char c) { return c != 0; }));
}

std::vector<std::pair<std::size_t, std::vector<std::int32_t>>> first_runs(
    const std::deque<Tracked>& tracked) {
    std::vector<std::pair<std::size_t, std::vector<std::int32_t>>> out;
    for (const Tracked& t : tracked) {
        if (out.size() == kParityRequests) break;
        if (!t.tokens.empty()) out.emplace_back(t.spec, t.tokens);
    }
    return out;
}

obs::HistogramSnapshot histogram(const cluster::ClusterRouter& router, const std::string& name) {
    const obs::MetricsSnapshot snap = router.metrics_snapshot();
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

// after - before, bucket by bucket (the engine's histograms are cumulative).
obs::HistogramSnapshot delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
    obs::HistogramSnapshot d;
    d.buckets.assign(obs::LatencyHistogram::kBucketCount, 0);
    std::size_t lo = d.buckets.size();
    std::size_t hi = 0;
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        const std::uint64_t a = i < after.buckets.size() ? after.buckets[i] : 0;
        const std::uint64_t b = i < before.buckets.size() ? before.buckets[i] : 0;
        d.buckets[i] = a - b;
        d.count += a - b;
        if (a > b) {
            lo = std::min(lo, i);
            hi = i;
        }
    }
    d.sum = after.sum - before.sum;
    if (d.count > 0) {
        d.min = obs::LatencyHistogram::bucket_lower_bound(lo);
        d.max = std::min(after.max, obs::LatencyHistogram::bucket_upper_bound(hi));
    }
    return d;
}

// The histogram's quantile estimate (within its bucket width, 12.5 %), with
// the rank arithmetic HistogramSnapshot::quantile uses for `beyond`.
void report_quantile(Report& rep, std::string name, const obs::HistogramSnapshot& h, double p,
                     bool layer) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(h.count) + 0.5));
    rep.add({std::move(name), to_ms(h.quantile(p / 100.0)), "ms", h.count,
             h.count > rank ? h.count - rank : 0, layer});
}

// The generator's own timing around ClusterRouter::try_submit.
void report_submit(Report& rep, const Samples& submit_us) {
    for (const double p : {50.0, 99.0}) {
        rep.add({p == 50.0 ? "cluster.submit_us_p50" : "cluster.submit_us_p99",
                 submit_us.percentile(p), "us", submit_us.size(), submit_us.beyond(p), true});
    }
}

// Per-layer metrics the serve stack already counts, read right after the
// load (before any probe adds traffic).
void report_serve_layers(Report& rep, cluster::ClusterRouter& router,
                         const LoadSampler& sampler, const Tally& tally,
                         double lag_ms_max) {
    // A handle resolves before its shard books the step's counters; they
    // are final once the drivers are idle.
    router.drain();
    const cluster::ClusterStats cs = router.stats();
    serve::ServeStats sum;
    std::size_t cow = 0;
    std::size_t max_tokens = 0;
    for (const serve::ServeLoad& l : cs.shards) {
        const serve::ServeStats& s = l.stats;
        sum.steps += s.steps;
        sum.lane_steps += s.lane_steps;
        sum.prompt_tokens += s.prompt_tokens;
        sum.generated_tokens += s.generated_tokens;
        sum.requests_completed += s.requests_completed;
        sum.capacity_deferrals += s.capacity_deferrals;
        sum.prefix_hits += s.prefix_hits;
        sum.prefix_hit_tokens += s.prefix_hit_tokens;
        sum.prefix_cache_drops += s.prefix_cache_drops;
        sum.wall_ns += s.wall_ns;
        sum.weight_walks += s.weight_walks;
        cow += l.prefix.cow_copies;
        max_tokens = std::max(max_tokens, s.generated_tokens);
    }
    const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto requests = static_cast<double>(sum.requests_completed);
    rep.layer("engine.step_ms_mean", per(sum.wall_ns / 1e6, static_cast<double>(sum.steps)),
              "ms", sum.steps);

    const obs::MetricsSnapshot snap = router.metrics_snapshot();
    static constexpr const char* kPhases[] = {"queue_pick", "admission", "prefix_probe",
                                              "prefix_adopt", "prefill", "decode_batch",
                                              "attention", "sampling", "retire"};
    double phase_total = 0.0;
    std::vector<double> phase_ns;
    for (const char* p : kPhases) {
        const auto it = snap.counters.find(std::string("serve_phase_") + p + "_wall_ns_total");
        phase_ns.push_back(it == snap.counters.end() ? 0.0 : static_cast<double>(it->second));
        phase_total += phase_ns.back();
    }
    for (std::size_t i = 0; i < phase_ns.size(); ++i) {
        rep.layer(std::string("serve.phase_frac.") + kPhases[i], per(phase_ns[i], phase_total),
                  "ratio");
    }
    const auto qw = snap.histograms.find("serve_queue_wait_ns");
    const obs::HistogramSnapshot queue_wait =
        qw == snap.histograms.end() ? obs::HistogramSnapshot{} : qw->second;
    report_quantile(rep, "serve.queue_wait_ms_p50", queue_wait, 50, true);
    report_quantile(rep, "serve.queue_wait_ms_p90", queue_wait, 90, true);
    rep.layer("serve.deferrals_per_request",
              per(static_cast<double>(sum.capacity_deferrals), requests), "count");
    rep.layer("serve.prefill_lane_frac",
              per(static_cast<double>(sum.prompt_tokens), static_cast<double>(sum.lane_steps)),
              "ratio");
    rep.layer("serve.steps_per_request", per(static_cast<double>(sum.steps), requests),
              "count");
    rep.layer("serve.batch_occupancy",
              per(static_cast<double>(sum.lane_steps), static_cast<double>(sum.steps)),
              "lanes");
    rep.layer("serve.walks_per_token",
              per(sum.weight_walks, static_cast<double>(sum.generated_tokens)), "ratio");

    sampler.report(rep);
    rep.layer("kvpool.cow_copies", static_cast<double>(cow), "count");
    rep.layer("prefix.hit_frac", per(static_cast<double>(sum.prefix_hits), requests), "ratio");
    rep.layer("prefix.covered_frac",
              per(static_cast<double>(sum.prefix_hit_tokens),
                  static_cast<double>(sum.prompt_tokens + sum.prefix_hit_tokens)),
              "ratio");
    rep.layer("prefix.cache_drops", static_cast<double>(sum.prefix_cache_drops), "count");

    rep.layer("cluster.max_shard_share",
              per(static_cast<double>(max_tokens), static_cast<double>(cs.generated_tokens())),
              "ratio");
    rep.layer("cluster.rejected_frac",
              per(static_cast<double>(tally.rejected), static_cast<double>(tally.attempted)),
              "ratio", tally.attempted);
    rep.layer("loadgen.lag_ms_max", lag_ms_max, "ms", tally.attempted);
}

// Probes every workload runs on its own deployment after the load.
void common_probes(Report& rep, SpanLog& spans, Deployment& d, std::size_t threads,
                   const model::ModelConfig& sim_geometry, const std::string& prompt) {
    probe_model(rep, spans, *d.weights, threads);
    probe_cycle_model(rep, spans, sim_geometry);
    probe_pricing(rep, spans, d.weights->config);
    probe_wire(rep, spans);
    probe_prefix(rep, spans, *d.router, d.router->shard(0).tokenizer().encode(prompt));
}

void finish_run(RunResult& out, Deployment& d, const SpanLog& spans, bool traced) {
    const Report& rep = out.report;
    out.report.e2e("fail_frac",
                   rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                           static_cast<double>(rep.attempted)
                                     : 0.0,
                   "ratio", rep.attempted);
    if (traced) out.trace_json = spans.merge_into(d.router->trace_json());
}

void warm_up(cluster::ClusterRouter& router, const std::vector<RequestSpec>& warmup) {
    for (const RequestSpec& spec : warmup) {
        serve::Request req;
        req.prompt = spec.prompt;
        req.max_new_tokens = spec.max_new;
        (void)router.submit(std::move(req)).get();
    }
}

// ---------------------------------------------------------------------------

RunResult decode_long(const Traffic& tr, const RunOptions& ro) {
    RunResult out;
    Report& rep = out.report;
    SpanLog spans;
    const std::size_t threads = threads_up_to(4);
    cluster::ClusterOptions opts = cluster_options(1, ro.traced);
    opts.shard.max_batch = 1;
    opts.shard.threads = threads;
    const std::unique_ptr<Deployment> d = deploy(rep, bench_m(), opts, false);
    warm_up(*d->router, tr.warmup);

    LoadSampler sampler(ro.traced ? d->router.get() : nullptr);
    std::deque<Tracked> tracked;
    Tally tally;
    const std::uint64_t start = now_ns();
    WorkCursor cursor(start + static_cast<std::uint64_t>(ro.seconds * 1e9), tr.block);
    while (const auto i = cursor.take()) {
        Tracked& t = tracked.emplace_back();
        t.spec = *i % tr.requests.size();
        t.due_ns = now_ns();
        submit(*d->router, tr.requests[t.spec], t);
        complete(t, tally, sampler, ro.traced ? &spans : nullptr);
    }
    const double wall_s = to_s(now_ns() - start);
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    report_latency(rep, tally);
    rep.e2e("tok_s", static_cast<double>(tally.tokens) / wall_s, "tok/s", tally.attempted);
    check_parity(rep, *d->weights, opts.shard, tr, first_runs(tracked));

    if (ro.traced) {
        report_serve_layers(rep, *d->router, sampler, tally, 0.0);
        report_submit(rep, tally.submit_us);
        common_probes(rep, spans, *d, threads, d->weights->config, tr.requests[0].prompt);
    }
    finish_run(out, *d, spans, ro.traced);
    return out;
}

// chat and shared-prefix: an open-loop Poisson rate ladder. End-to-end
// latencies come from the first rung; slo_rate_rps is the highest rung that
// met the SLO, and the ladder stops at the first rung that misses it.
RunResult open_loop(const Traffic& tr, const RunOptions& ro) {
    RunResult out;
    Report& rep = out.report;
    SpanLog spans;
    const bool shared = tr.workload == "shared-prefix";
    model::ModelConfig cfg = model::ModelConfig::micro_256();
    cfg.max_seq_len = 512;
    cluster::ClusterOptions opts = cluster_options(2, ro.traced);
    opts.placement = shared ? cluster::PlacementPolicy::kPrefixAffinity
                            : cluster::PlacementPolicy::kRoundRobin;
    opts.shard.max_batch = 8;
    opts.shard.threads = 1;
    opts.shard.max_queue = 4096;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 16;
    opts.shard.kv_pool_pages = shared ? 128 : 96;
    opts.shard.prefix_sharing = shared;
    const std::unique_ptr<Deployment> d = deploy(rep, cfg, opts, false);
    warm_up(*d->router, tr.warmup);
    for (const std::string& sys : tr.system_prompts) warm_up(*d->router, {{0.0, 0, sys, 2}});

    LoadSampler sampler(ro.traced ? d->router.get() : nullptr);
    std::deque<Tracked> tracked;
    Tally all;
    std::vector<Tally> rungs;
    double slo_rate = 0.0;
    double lag_ms_max = 0.0;
    std::size_t i = 0;
    for (std::size_t r = 0; r < tr.rates_rps.size(); ++r) {
        Tally& rung = rungs.emplace_back();
        const std::uint64_t start = now_ns() + 1'000'000;
        const std::size_t first = tracked.size();
        for (; i < tr.requests.size() && tr.requests[i].rung == r; ++i) {
            Tracked& t = tracked.emplace_back();
            t.spec = i;
            t.due_ns = start + static_cast<std::uint64_t>(tr.requests[i].due_s * 1e9);
            sleep_until(t.due_ns, sampler);
            submit(*d->router, tr.requests[i], t);
            lag_ms_max = std::max(lag_ms_max, to_ms(t.sent_ns - t.due_ns));
        }
        for (std::size_t k = first; k < tracked.size(); ++k) {
            complete(tracked[k], rung, sampler, ro.traced ? &spans : nullptr);
        }
        all.merge(rung);
        const bool pass = rung.failed == 0 && rung.ttft.percentile(90) <= kSloTtftP90Ms &&
                          rung.itl.percentile(99) <= kSloItlP99Ms;
        char name[64];
        std::snprintf(name, sizeof(name), "rung%zu_ttft_p90_ms", r);
        rep.add({name, rung.ttft.percentile(90), "ms", rung.ttft.size(), rung.ttft.beyond(90),
                 false});
        if (!pass) break;
        slo_rate = tr.rates_rps[r];
    }
    rep.attempted = all.attempted;
    rep.failed = all.failed;
    const Tally& first = rungs.front();
    report_latency(rep, first);
    rep.e2e("tok_s",
            static_cast<double>(first.tokens) / to_s(first.last_token_ns - first.first_due_ns),
            "tok/s", first.attempted);
    rep.e2e("slo_rate_rps", slo_rate, "rps", rungs.size());
    check_parity(rep, *d->weights, opts.shard, tr, first_runs(tracked));

    if (ro.traced) {
        report_serve_layers(rep, *d->router, sampler, all, lag_ms_max);
        report_submit(rep, all.submit_us);
        common_probes(rep, spans, *d, 1, cfg, tr.requests[0].prompt);
    }
    finish_run(out, *d, spans, ro.traced);
    return out;
}

// What the TCP front-end adds: a 1-token request over one SocketClient
// against the same request through ClusterRouter::submit, and the
// socket-interactive request mix served in process by the same four
// closed-loop clients (the generator's try_submit timing comes from here).
void probe_socket_path(Report& rep, SpanLog& spans, Deployment& d, const Traffic& tr) {
    constexpr std::size_t kReps = 30;
    cluster::SocketClient client("127.0.0.1", d.server->port());
    cluster::wire::WireRequest w;
    w.prompt = "x";
    w.max_new_tokens = 1;
    const Samples socket_us =
        time_us(spans, "cluster.socket_1tok", kReps, 1, [&] { (void)client.request(w); });
    const Samples inproc_us = time_us(spans, "cluster.inproc_1tok", kReps, 1, [&] {
        serve::Request req;
        req.prompt = "x";
        req.max_new_tokens = 1;
        (void)d.router->submit(std::move(req)).get();
    });
    rep.layer("cluster.socket_overhead_ms", (socket_us.median() - inproc_us.median()) / 1e3,
              "ms", kReps);

    constexpr std::size_t kPerClient = 16;
    std::vector<Samples> rtt(tr.clients), submit(tr.clients);
    std::vector<std::jthread> threads;  // joined on every path
    for (std::size_t c = 0; c < tr.clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t k = 0; k < kPerClient; ++k) {
                const RequestSpec& spec = tr.requests[(k * tr.clients + c) % tr.requests.size()];
                serve::Request req;
                req.prompt = spec.prompt;
                req.max_new_tokens = spec.max_new;
                const std::uint64_t t0 = now_ns();
                const cluster::ClusterRouter::SubmitOutcome out =
                    d.router->try_submit(std::move(req));
                submit[c].add(static_cast<double>(now_ns() - t0) / 1e3);
                if (out.accepted) (void)out.handle.get();
                rtt[c].add(to_ms(now_ns() - t0));
            }
        });
    }
    for (std::jthread& t : threads) t.join();
    Samples all_rtt, all_submit;
    for (std::size_t c = 0; c < tr.clients; ++c) {
        all_rtt.merge(rtt[c]);
        all_submit.merge(submit[c]);
    }
    rep.layer("cluster.inproc_req_ms_p50", all_rtt.median(), "ms", all_rtt.size());
    report_submit(rep, all_submit);
}

RunResult socket_interactive(const Traffic& tr, const RunOptions& ro) {
    RunResult out;
    Report& rep = out.report;
    SpanLog spans;
    const cluster::ClusterOptions opts = cluster_options(2, ro.traced);
    const std::unique_ptr<Deployment> d =
        deploy(rep, model::ModelConfig::micro_256(), opts, true);
    const std::uint16_t port = d->server->port();

    std::vector<std::unique_ptr<cluster::SocketClient>> clients;
    for (std::size_t c = 0; c < tr.clients; ++c) {
        clients.push_back(std::make_unique<cluster::SocketClient>("127.0.0.1", port));
        cluster::wire::WireRequest w;
        w.prompt = tr.warmup[c].prompt;
        w.max_new_tokens = static_cast<std::uint32_t>(tr.warmup[c].max_new);
        (void)clients.back()->request(w);
    }
    const obs::HistogramSnapshot ttft0 = histogram(*d->router, "serve_ttft_ns");
    const obs::HistogramSnapshot itl0 = histogram(*d->router, "serve_intertoken_gap_ns");

    // Per-client results, merged after the join.
    struct Done {
        std::size_t index = 0;
        std::size_t client = 0;
        std::uint64_t sent_ns = 0;
        std::uint64_t done_ns = 0;
        bool ok = false;
        bool rejected = false;
        std::vector<std::int32_t> tokens;
    };
    std::vector<std::vector<Done>> done(tr.clients);
    std::atomic<std::size_t> running{tr.clients};
    const std::uint64_t start = now_ns();
    WorkCursor cursor(start + static_cast<std::uint64_t>(ro.seconds * 1e9), tr.block);
    std::vector<std::jthread> threads;  // joined on every path
    for (std::size_t c = 0; c < tr.clients; ++c) {
        threads.emplace_back([&, c] {
            while (const auto i = cursor.take()) {
                const RequestSpec& spec = tr.requests[*i % tr.requests.size()];
                cluster::wire::WireRequest w;
                w.prompt = spec.prompt;
                w.max_new_tokens = static_cast<std::uint32_t>(spec.max_new);
                Done r;
                r.index = *i;
                r.client = c;
                r.sent_ns = now_ns();
                try {
                    const cluster::wire::WireResponse resp = clients[c]->request(w);
                    r.ok = resp.status == cluster::wire::Status::kOk &&
                           (resp.finish_reason ==
                                static_cast<std::uint8_t>(serve::FinishReason::kBudget) ||
                            resp.finish_reason ==
                                static_cast<std::uint8_t>(serve::FinishReason::kEos));
                    r.rejected = resp.status == cluster::wire::Status::kRejected;
                    r.tokens = resp.tokens;
                } catch (const std::exception&) {
                    r.ok = false;  // transport failure: counted as failed
                }
                r.done_ns = now_ns();
                done[c].push_back(std::move(r));
            }
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    LoadSampler sampler(ro.traced ? d->router.get() : nullptr);
    while (sampler.on() && running.load(std::memory_order_acquire) > 0) {
        sleep_until(now_ns() + 5'000'000, sampler);
    }
    for (std::jthread& t : threads) t.join();
    const double wall_s = to_s(now_ns() - start);

    Tally tally;
    std::vector<Done> all;
    for (auto& v : done) {
        for (Done& r : v) all.push_back(std::move(r));
    }
    std::sort(all.begin(), all.end(),
              [](const Done& a, const Done& b) { return a.index < b.index; });
    std::vector<std::pair<std::size_t, std::vector<std::int32_t>>> firsts;
    for (const Done& r : all) {
        ++tally.attempted;
        if (ro.traced) {
            spans.slice("socket_request", 10 + static_cast<std::uint32_t>(r.client),
                        r.sent_ns, r.done_ns);
        }
        if (!r.ok) {
            tally.fail(r.rejected);
            continue;
        }
        tally.req.add(to_ms(r.done_ns - r.sent_ns));
        tally.tokens += r.tokens.size();
        if (firsts.size() < kParityRequests) {
            firsts.emplace_back(r.index % tr.requests.size(), r.tokens);
        }
    }
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    // The wire protocol does not stream, so TTFT and inter-token gaps come
    // from the engines' own histograms (the load's share of them).
    const obs::HistogramSnapshot ttft = delta(histogram(*d->router, "serve_ttft_ns"), ttft0);
    const obs::HistogramSnapshot itl =
        delta(histogram(*d->router, "serve_intertoken_gap_ns"), itl0);
    report_quantile(rep, "ttft_p50_ms", ttft, 50, false);
    report_quantile(rep, "ttft_p90_ms", ttft, 90, false);
    report_quantile(rep, "itl_p50_ms", itl, 50, false);
    report_quantile(rep, "itl_p99_ms", itl, 99, false);
    rep.percentiles("req", tally.req, {50, 90});
    rep.e2e("tok_s", static_cast<double>(tally.tokens) / wall_s, "tok/s", tally.attempted);
    rep.e2e("req_s", static_cast<double>(tally.attempted - tally.failed) / wall_s, "req/s",
            tally.attempted);
    check_parity(rep, *d->weights, opts.shard, tr, firsts);

    if (ro.traced) {
        report_serve_layers(rep, *d->router, sampler, tally, 0.0);
        probe_socket_path(rep, spans, *d, tr);
        common_probes(rep, spans, *d, 1, d->weights->config, tr.requests[0].prompt);
    }
    finish_run(out, *d, spans, ro.traced);
    return out;
}

RunResult kv260_twin(const Traffic& tr, const RunOptions& ro) {
    RunResult out;
    Report& rep = out.report;
    SpanLog spans;
    cluster::ClusterOptions opts = cluster_options(1, ro.traced);
    opts.shard.backend = engine::BackendKind::kAccel;
    opts.shard.max_batch = 4;
    const std::unique_ptr<Deployment> d =
        deploy(rep, model::ModelConfig::micro_256(), opts, false);

    // (A) LLaMA2-7B on the KV260 model, the paper's headline numbers.
    const model::ModelConfig llama = model::ModelConfig::llama2_7b();
    const model::QuantScheme scheme = model::QuantScheme::w4a16_kv8();
    accel::DecodeCycleModel m(llama, scheme, accel::AccelConfig{});
    double total_ns = 0.0;
    std::size_t points = 0;
    for (std::size_t ctx = 32; ctx < 1024; ctx += 64, ++points) {
        total_ns += m.token_timing(ctx).total_ns;
    }
    const double sim_tok_s = static_cast<double>(points) * 1e9 / total_ns;
    // The paper's bandwidth limit: 19.2 GB/s over the 4-bit projection and
    // LM-head weights (Table II footnote 1).
    const double limit = 19.2e9 / (static_cast<double>(llama.layer_params() +
                                                       llama.lm_head_params()) *
                                   0.5);
    const double capacity = runtime::MemoryPlanner::plan_kv260(llama, scheme).utilization;
    rep.e2e("sim_decode_tok_s", sim_tok_s, "tok/s", points);
    rep.e2e("bw_util", sim_tok_s / limit, "ratio", points);
    rep.e2e("capacity_util", capacity, "ratio");
    rep.check("paper_decode_4.9_tok_s_within_5pct", std::abs(sim_tok_s / 4.9 - 1.0) <= 0.05);
    rep.check("paper_bw_util_84.5_within_3pts", std::abs(sim_tok_s / limit - 0.845) <= 0.03);
    rep.check("paper_capacity_93.3_within_1pt", std::abs(capacity - 0.933) <= 0.01);
    {
        accel::DecodeCycleModel a(llama, scheme, accel::AccelConfig{});
        accel::DecodeCycleModel b(llama, scheme, accel::AccelConfig{});
        const std::size_t ctx512[] = {512};
        rep.check("batch_timing_512_equals_token_timing_512",
                  a.batch_timing(ctx512).total_ns == b.token_timing(512).total_ns);
    }

    // (B) the functional twin serving a closed batch. The drivers pause
    // while the batch is enqueued so every run steps the same composition
    // and the modeled numbers repeat exactly.
    LoadSampler sampler(ro.traced ? d->router.get() : nullptr);
    std::deque<Tracked> tracked;
    Tally tally;
    let_drivers_park();
    d->router->stop();
    for (std::size_t i = 0; i < tr.requests.size(); ++i) {
        Tracked& t = tracked.emplace_back();
        t.spec = i;
        submit(*d->router, tr.requests[i], t);
    }
    const std::uint64_t release = now_ns();
    for (Tracked& t : tracked) t.due_ns = release;
    d->router->start();
    for (Tracked& t : tracked) complete(t, tally, sampler, ro.traced ? &spans : nullptr);
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    report_latency(rep, tally);
    rep.e2e("tok_s", static_cast<double>(tally.tokens) / to_s(tally.last_token_ns - release),
            "tok/s", tally.attempted);
    d->router->drain();  // counters are final once the driver is idle
    rep.e2e("sim_serve_tok_s", d->router->stats().simulated_cluster_tokens_per_s(), "tok/s",
            tally.tokens);
    check_parity(rep, *d->weights, opts.shard, tr, first_runs(tracked));

    if (ro.traced) {
        report_serve_layers(rep, *d->router, sampler, tally, 0.0);
        report_submit(rep, tally.submit_us);
        const obs::MetricsSnapshot snap = d->router->metrics_snapshot();
        const auto counter = [&](const char* name) {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
        };
        const double step_ns = counter("serve_phase_prefill_wall_ns_total") +
                               counter("serve_phase_decode_batch_wall_ns_total");
        rep.layer("accel.twin_attention_frac",
                  step_ns > 0.0 ? counter("serve_phase_attention_wall_ns_total") / step_ns : 0.0,
                  "ratio");
        common_probes(rep, spans, *d, 1, llama, tr.requests[0].prompt);
        probe_twin(rep, spans, *d->weights);
    }
    finish_run(out, *d, spans, ro.traced);
    return out;
}

}  // namespace

RunResult run_workload(const Traffic& traffic, const RunOptions& opts) {
    if (traffic.workload == "decode-long") return decode_long(traffic, opts);
    if (traffic.workload == "socket-interactive") return socket_interactive(traffic, opts);
    if (traffic.workload == "kv260-twin") return kv260_twin(traffic, opts);
    return open_loop(traffic, opts);
}

}  // namespace efld::bench
