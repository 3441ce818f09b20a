// Continuous-batching serve engine: N concurrent decode sessions behind a
// bounded request queue, one batched backend step at a time, on ANY
// DecodeBackend.
//
// The paper's whole bandwidth argument is that decode is weight-bound — every
// token pays one full streaming pass over the quantized weights. A single
// stream therefore caps out at bandwidth / weight-bytes. The only way past
// that roofline is to amortize one walk across more work, and this engine is
// the serving layer that does it: each step advances every active session
// through ONE backend step — a decoding session by one token, a session in
// prefill by a prompt tile of up to the backend's max_feed_tokens() rows.
//
// Backends (ServeOptions::backend, or bring your own DecodeBackend):
//   host  — model::ReferenceEngine skinny-GEMM fast path. Wall-clock serving
//           throughput; every session bit-for-bit identical to a solo run.
//   accel — accel::Accelerator, the functional KV260 twin priced by
//           DecodeCycleModel::batch_timing (weights streamed once per step,
//           KV streams per session). stats().simulated_tokens_per_s() is the
//           predicted KV260 *serving* throughput.
//
// Continuous batching: sessions join and retire at token boundaries only.
// A joining request's prompt tokens ride the same batched walks as other
// sessions' decode tokens (mixed prefill/decode batches), so admission never
// stalls the running sessions. Each step is built within a row budget of
// max(active sessions, backend max_feed_tokens()) rows (Sarathi-Serve's
// chunked prefill, arXiv:2403.02310): every active session gets one row, and
// the rows left over go to sessions still in prefill, oldest admission first,
// as a span of their remaining prompt (failover replay and the un-adopted
// tail after a prefix hit included). On the host backend a step therefore
// walks the weights at most twice; on the accel twin (max_feed_tokens 1)
// every session takes exactly one row. Admission order is a pluggable Scheduler
// (FCFS default, shortest-job-first optional). Requests can stream tokens
// (Request::on_token), be cancelled cooperatively (RequestHandle::cancel),
// or carry deadlines — all observed at token boundaries, so the batch never
// stalls on control operations either.
//
// Capacity-aware admission (ServeOptions::paging): the backend's kvpool page
// pool, otherwise sized for every slot to fill its context window, is sized
// from the DDR budget runtime::MemoryPlanner derives (device minus weights minus
// firmware), and a kvpool::CapacityGovernor admits queued requests only when
// their worst-case page demand — ceil((prompt + max_new) / page_tokens) —
// fits next to every admitted session's. A request whose demand does not fit
// YET stays queued in policy order (ServeResult::times_deferred counts the
// refusals); one whose demand could NEVER fit is rejected at submit. Admitted
// sessions therefore cannot run the pool dry, and retirement returns their
// pages, so concurrency follows actual memory headroom instead of a static
// max_batch.
//
// Threading model: submit()/cancel() are thread-safe; step()/run_until_idle()
// drive the engine from one caller thread (futures resolve and on_token
// callbacks fire inside step). Alternatively run() starts a dedicated serving
// thread that drives step() and sleeps on the queue's condition variable when
// idle — callers then just submit and await futures; stop() (or destruction)
// joins it. The engine's own parallelism (GEMM rows, attention clusters) is
// ServeOptions::threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/backend_factory.hpp"
#include "engine/decode_backend.hpp"
#include "kvpool/capacity_governor.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "obs/clock.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "serve/overload.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve_types.hpp"
#include "serve/session_state.hpp"

namespace efld::serve {

struct ServeOptions {
    model::SamplerConfig sampler{};   // each request gets a fresh sampler
    engine::BackendKind backend = engine::BackendKind::kHost;
    SchedulerPolicy scheduler = SchedulerPolicy::kFcfs;
    std::size_t max_batch = 4;        // concurrent session slots
    std::size_t max_queue = 64;       // pending requests before submit rejects
    bool use_kv8 = true;              // software twin of the deployed KV8 cache
    unsigned kv_bits = 8;
    std::size_t threads = 1;          // engine worker pool (see EngineOptions)
    // Paged KV pool + capacity-aware admission. Pool sizing precedence:
    // kv_pool_pages if set; else the KV260 plan's post-weight DDR headroom
    // (MemoryPlanner::plan_kv260).
    bool paging = false;
    std::size_t kv_page_tokens = 16;  // page size (16 = pack-word aligned)
    std::size_t kv_pool_pages = 0;    // explicit pool size in pages
    // Prefix sharing over the paged pool (requires paging; the one switch for
    // it — every paged backend keeps a prefix::PrefixStore, and only this
    // option makes the engine call it). Both backends share one page store
    // and one adoption rule, so host and accel report the same numbers. The
    // store indexes computed prompt pages: admission probes it to discount a
    // request's page demand by its covered FULL pages (shared pages are
    // charged once, to the governor's shared ledger), adoption skips prefill
    // for the covered span, and completed prefills register their pages under
    // the governor's shared budget (never more than half the pool, never into
    // committed headroom). Capacity pressure with zero active sessions drops
    // the whole index rather than starve an admissible request. Off by
    // default: sharing changes admission numbers, so callers opt in.
    bool prefix_sharing = false;
    // Anti-starvation bound: a request passed over (capacity-refused as the
    // pick, or SJF admitting younger, shorter jobs ahead of it) this many
    // times is promoted to the mandatory next admission pick regardless of
    // scheduler policy (ServeStats::queue_promotions counts).
    std::size_t max_deferrals = 32;
    // Scripted fault schedule wrapped around the backend (see
    // engine/fault_injection.hpp for the grammar: step:K | alloc:K |
    // stall:K:MS | flaky:P:SEED). Empty = no injection. Tests and
    // serve_server use this to spawn an engine guaranteed to die at step K.
    std::string fault_spec;
    // Observability seams. `trace` is a lifecycle-event ring shared across a
    // cluster's shards (null = tracing off); `clock` overrides the latency/
    // trace/deadline timebase (null = process steady clock — tests inject a
    // ManualClock); `shard_id` tags this engine's trace events and log lines
    // (the cluster router assigns it).
    std::shared_ptr<obs::TraceRecorder> trace;
    std::shared_ptr<const obs::Clock> clock;
    std::uint32_t shard_id = 0;
    // Per-phase cost profiler (obs::Profiler): scoped spans through the serve
    // hot path and the backend's attention blocks, StepCost attribution
    // between prefill and decode lanes, and serve_phase_* metric series.
    // Off by default — the gate is ≤3% overhead, not zero.
    bool profile = false;
    // Span ring capacity when profiling (the Perfetto timeline keeps the
    // most recent this-many scopes; 0 = totals only, no timeline).
    std::size_t profiler_spans = 4096;
    // Alert-driven overload protection (null = off). Shared across a
    // cluster's shards and flipped by the SLO controller on alert
    // transitions: while engaged, the queue sweep sheds deadline-hopeless
    // requests with FinishReason::kShedOverload (requests whose remaining
    // deadline budget cannot cover the governor's TTFT estimate, which the
    // SLO controller publishes from its TSDB's trailing-10s serve_ttft_ns
    // mean), so slots go to work that can still meet its SLO.
    std::shared_ptr<OverloadGovernor> overload;
    // Starting point for this engine's request ids (first id = id_base + 1).
    // The cluster router gives every shard engine a disjoint namespace so a
    // request id means ONE request cluster-wide — the shared trace ring and
    // failover resubmission both key on it. 0 keeps the single-engine
    // numbering (1, 2, ...).
    std::uint64_t id_base = 0;
};

class ServeEngine {
public:
    // Invoked (on the driver/stepping thread, at most once) the moment a
    // backend call throws — the engine has already marked itself failed,
    // counted the fault, and returned the governor's committed pages before
    // the callback runs, so the callback may immediately take_unfinished()
    // and resubmit the harvest elsewhere. Exceptions it throws are swallowed:
    // failure reporting must not take the reporter down too.
    using FailureCallback = std::function<void(const std::exception_ptr&)>;
    // Builds the backend ServeOptions::backend selects. Non-owning of
    // `weights` (must outlive the engine); the accel backend's packed DDR
    // image is built from them and owned here. Throws std::invalid_argument
    // on invalid options (max_batch == 0, max_queue == 0, bad thread count).
    ServeEngine(const model::QuantizedModelWeights& weights, ServeOptions opts);

    // Bring-your-own backend: the engine serves whatever DecodeBackend it is
    // handed (slot count comes from backend->max_batch(), which overrides
    // ServeOptions::max_batch). With paging, the governor budgets against the
    // backend's config; hand it a backend whose own KV layout matches
    // (EngineOptions::kv_page_tokens / kv_pool_pages for the host engine).
    ServeEngine(std::unique_ptr<engine::DecodeBackend> backend, ServeOptions opts);

    // Stops the background driver (if running) before tearing down.
    ~ServeEngine();

    // Tokenizes and enqueues; the handle cancels/polls/awaits the request.
    // Throws when the queue is full or the prompt exceeds the context window.
    RequestHandle submit(Request req);

    // One batched step: retire cancelled/expired sessions, admit queued
    // requests into free slots (Scheduler order, gated by the capacity
    // governor when paging), advance every active session by one token (or
    // a prompt tile) through a single backend step, retire finished
    // sessions. Returns true
    // while work remains (active or queued). Throws when the background
    // driver owns the step loop.
    bool step();

    // Drives step() until queue and batch are both empty. Throws while the
    // background driver runs.
    void run_until_idle();

    // Background serve driver: a dedicated thread drives step() and sleeps on
    // the request queue's condition variable when idle, so callers just
    // submit and await futures/callbacks (both fire on the driver thread).
    // Throws if already running. stop() is idempotent, joins the thread, and
    // leaves unfinished work queued/active for a later run() or step(); an
    // exception a callback threw on the driver thread (which ends the driver)
    // is rethrown from stop().
    void run();
    void stop();
    [[nodiscard]] bool running() const noexcept {
        return driver_running_.load(std::memory_order_acquire);
    }
    // Blocks until the queue is empty and no session is active. With the
    // driver running this waits on its idle signal; otherwise it simply
    // drives run_until_idle() inline.
    void wait_until_idle();

    // Counters are written by whichever thread drives step(); read the
    // reference from another thread only at a quiet point (after
    // wait_until_idle()/stop()). For live reads use stats_snapshot()/load().
    [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
    // A consistent copy of the counters, safe from any thread while the
    // driver serves (every counter mutation happens under the same lock).
    [[nodiscard]] ServeStats stats_snapshot() const;
    // The engine's load — counters, queue depth, active sessions, and (with
    // paging) committed + queued page demand — safe from any thread while
    // the driver serves. The counter block is internally consistent (one
    // lock); the queue/active/pages fields are each torn-read-free but read
    // in sequence, so a request caught mid-admission can transiently appear
    // in neither queued nor active. That is fine for what this feeds — a
    // router's placement heuristics — and closing the window would mean
    // locking the whole admission path against readers.
    [[nodiscard]] ServeLoad load() const;
    // Full metrics snapshot for exposition: the engine's latency histograms
    // (serve_queue_wait_ns / serve_ttft_ns / serve_intertoken_gap_ns /
    // serve_e2e_ns) plus counters DERIVED from the same ServeStats that
    // stats_snapshot() reports and gauges from load() — so wire-exposed
    // counters always match ClusterStats exactly, with zero extra hot-path
    // bookkeeping. Safe from any thread.
    [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
    // The engine's metric instruments (latency histograms live here).
    [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
        return metrics_;
    }
    // The engine's phase profiler (enabled iff ServeOptions::profile). The
    // cluster router reads spans() off it for the Perfetto export.
    [[nodiscard]] const obs::Profiler& profiler() const noexcept {
        return prof_;
    }
    [[nodiscard]] std::size_t active_sessions() const noexcept {
        return n_active_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::size_t queued_requests() const { return queue_.size(); }
    [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
    // Capacity governor when paging is on; nullptr otherwise.
    [[nodiscard]] const kvpool::CapacityGovernor* governor() const noexcept {
        return governor_.get();
    }
    [[nodiscard]] const engine::DecodeBackend& backend() const noexcept {
        return *backend_;
    }
    [[nodiscard]] const model::ByteTokenizer& tokenizer() const noexcept {
        return tokenizer_;
    }
    // Tokens of `prompt` (already tokenized) the backend's prefix index would
    // cover if a session adopted right now — the router's affinity signal.
    // Safe from any thread (the backend's probe locks its index); 0 when
    // sharing is off.
    [[nodiscard]] std::size_t probe_prefix(
        std::span<const std::int32_t> prompt) const {
        if (!opts_.prefix_sharing || prompt.empty()) return 0;
        return backend_->probe_prefix(prompt, prompt.size() - 1);
    }

    // --- Failure detection & failover -------------------------------------
    //
    // ANY exception out of a backend call (decode_batch, reserve_slot,
    // release_slot) is a device fault: the engine marks itself failed, stops
    // decoding, returns every committed page to the governor, reports through
    // the failure callback, and resolves whatever the callback's failover
    // left behind with FinishReason::kShardFailure. A failed engine never
    // serves again — the cluster layer builds a replacement (restart_shard).

    // Registers the failure callback (replacing any previous one). Safe from
    // any thread; register before run() to never miss a fault.
    void set_on_failure(FailureCallback cb);
    // True once a backend call has faulted. Queued/in-flight work is then
    // reachable only through take_unfinished().
    [[nodiscard]] bool failed() const noexcept {
        return failed_.load(std::memory_order_acquire);
    }
    // The fault that killed the backend (null while healthy).
    [[nodiscard]] std::exception_ptr failure() const;
    // Harvests every unresolved request from a FAILED engine — in-flight
    // sessions first (each carrying its generated-so-far tokens as `resumed`
    // and its failover count bumped), then requests still queued. Slots are
    // cleared without touching the dead backend. Harvesting is one-shot:
    // a second call returns empty. Throws if the engine has not failed.
    std::vector<PendingRequest> take_unfinished();
    // Failover re-entry: enqueues a request harvested from another engine,
    // skipping tokenization (the prompt is already ids). Returns false —
    // leaving `req` intact for the caller to try elsewhere — when this
    // engine has itself failed, the queue is full, or the request's
    // worst-case page demand exceeds the whole pool. On true the engine owns
    // the request and its promise WILL resolve here (kShardFailure included).
    bool resubmit(PendingRequest& req);

private:
    void init();
    void init_governor(const model::ModelConfig& cfg);
    // Resolves a request that never took a slot here (zero budget, shed from
    // the queue by cancel/deadline) — a resumed request keeps the tokens the
    // dead shard already generated.
    void resolve_unstarted(PendingRequest&& req, FinishReason why);
    // step() body; the driver calls it directly. A step runs its phases in
    // order: control_plane, admit, build_feed, run_feed, sample_and_book.
    bool step_locked();
    // Control plane: retires cancelled/expired sessions, resolves dead queued
    // requests, and sheds deadline-hopeless ones under overload.
    void control_plane();
    void admit();
    // Fills the feed scratch: one row per active lane plus prefill spans up
    // to the step's row budget.
    void build_feed();
    // Runs the feed through the backend and books the step's cost; false
    // (engine failed) when the backend threw.
    bool run_feed();
    // Advances prefill, samples every samplable lane, streams, retires, and
    // books token counters before any future resolves.
    void sample_and_book();
    void retire(SessionState& s, FinishReason why);
    void driver_loop();
    // Consumes backend_error_: marks the engine failed, releases the
    // governor's pages, fires the failure callback, then resolves anything
    // the callback's failover left behind with kShardFailure.
    void fail_backend();
    // Resolves a harvested/abandoned request with kShardFailure (partial
    // tokens preserved) and counts it lost.
    void resolve_lost(PendingRequest&& req);

    // Trace helper: no-op when ServeOptions::trace is null.
    void trace(std::uint64_t request_id, obs::TraceEvent event,
               std::uint64_t arg = 0) const;

    ServeOptions opts_;
    model::ByteTokenizer tokenizer_;
    // Observability: the clock every latency/trace timestamp reads, the
    // metric instruments, and hot-path handles to the four latency
    // histograms (resolved once at init — record() is lock-free).
    const obs::Clock* clock_ = nullptr;
    obs::MetricsRegistry metrics_;
    obs::LatencyHistogram* hist_queue_wait_ = nullptr;
    obs::LatencyHistogram* hist_ttft_ = nullptr;
    obs::LatencyHistogram* hist_intertoken_ = nullptr;
    obs::LatencyHistogram* hist_e2e_ = nullptr;
    // Phase profiler (inert unless opts_.profile).
    obs::Profiler prof_;
    engine::BackendBundle bundle_;              // owns the backend (+ packed image)
    engine::DecodeBackend* backend_ = nullptr;  // = bundle_.backend.get()
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<kvpool::CapacityGovernor> governor_;  // paging only
    RequestQueue queue_;
    std::vector<std::optional<SessionState>> slots_;  // index = backend slot
    std::atomic<std::size_t> n_active_{0};
    std::atomic<std::uint64_t> next_id_{1};
    // Every stats_ mutation happens under stats_mu_ so stats_snapshot()/load()
    // never observe a torn update mid-step. The driver's writes are a few
    // uncontended lock acquisitions per multi-millisecond decode step.
    mutable std::mutex stats_mu_;
    ServeStats stats_;
    // Governor ledger mirror for load(): the governor itself is driver-thread
    // only; this publishes its committed count to snapshot readers.
    std::atomic<std::size_t> committed_pages_cache_{0};
    std::atomic<std::size_t> shared_pages_cache_{0};

    // Failure state. backend_error_ is step-thread-only staging: the first
    // backend exception of a step parks here and fail_backend() consumes it
    // at the next safe point (never mid-retire, so bookkeeping stays
    // consistent). failed_/failure_/on_failure_ are cross-thread.
    std::exception_ptr backend_error_;
    std::atomic<bool> failed_{false};
    mutable std::mutex failure_mu_;  // guards failure_ and on_failure_
    std::exception_ptr failure_;
    FailureCallback on_failure_;
    // Requests popped from the queue whose slot reservation faulted: in
    // neither the queue nor a slot, held here for take_unfinished().
    std::vector<PendingRequest> orphans_;

    // Background driver state. run()/stop()/wait_until_idle() are driven from
    // one controlling thread; submit()/cancel() stay safe from any thread.
    std::thread driver_;
    std::atomic<bool> driver_running_{false};
    std::atomic<bool> stop_requested_{false};
    std::exception_ptr driver_error_;  // callback error, rethrown by stop()/run()
    std::mutex idle_mu_;
    std::condition_variable idle_cv_;
    bool driver_busy_ = false;  // guarded by idle_mu_: a step is in flight

    // Step scratch (reused, no per-step allocation). Span i feeds
    // feed_rows_[i] consecutive tokens of feed_tokens_ to slot feed_slots_[i]
    // and gets logits row i.
    std::vector<std::int32_t> feed_tokens_;
    std::vector<std::size_t> feed_slots_;
    std::vector<std::size_t> feed_rows_;
    std::size_t feed_prefill_rows_ = 0;       // rows that lead to no sample
    std::vector<std::size_t> feed_extra_;     // per slot: span rows beyond 1
    std::vector<std::size_t> prefill_order_;  // prefill slots, oldest first
    std::vector<float> logits_;  // [max_batch][vocab]
    std::uint64_t admissions_ = 0;  // admit_seq source (driver thread only)
};

}  // namespace efld::serve
