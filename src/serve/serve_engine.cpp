#include "serve/serve_engine.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "engine/fault_injection.hpp"
#include "kvpool/kv_block_pool.hpp"
#include "runtime/memory_planner.hpp"

namespace efld::serve {

namespace {
model::EngineOptions engine_options(const ServeOptions& o) {
    model::EngineOptions e;
    e.use_kv8 = o.use_kv8;
    e.kv_bits = o.kv_bits;
    e.threads = o.threads;
    e.max_batch = o.max_batch;
    return e;
}

void validate(const ServeOptions& o) {
    if (o.max_batch == 0) {
        throw std::invalid_argument("ServeOptions: max_batch must be >= 1");
    }
    if (o.max_queue == 0) {
        throw std::invalid_argument(
            "ServeOptions: max_queue must be >= 1 (a queueless server cannot "
            "accept work; shed load by rejecting submits instead)");
    }
    if (o.paging && o.kv_page_tokens == 0) {
        throw std::invalid_argument(
            "ServeOptions: paging needs kv_page_tokens >= 1");
    }
    if (!o.paging && o.kv_pool_pages != 0) {
        throw std::invalid_argument(
            "ServeOptions: kv_pool_pages has no effect without paging (set "
            "paging = true)");
    }
    if (o.prefix_sharing && !o.paging) {
        throw std::invalid_argument(
            "ServeOptions: prefix_sharing needs paging (shared pages are "
            "refcounted pool pages)");
    }
    if (o.max_deferrals == 0) {
        throw std::invalid_argument(
            "ServeOptions: max_deferrals must be >= 1 (0 would promote every "
            "queued request instantly, bypassing the scheduler entirely)");
    }
    // The thread-count contract is shared with EngineOptions; validate it here
    // too so the accel backend (which never builds a ReferenceEngine) rejects
    // the same misconfigurations.
    model::validate(engine_options(o));
}
}  // namespace

void ServeEngine::init_governor(const model::ModelConfig& cfg) {
    // Pages are priced as the KV8 arena stores them, one byte per code at
    // any kv_bits.
    const model::QuantScheme scheme = model::QuantScheme::w4a16_kv8();
    std::size_t pages = opts_.kv_pool_pages;
    if (pages == 0) {
        // Whatever DDR the KV260 plan leaves after the weights and the
        // bare-metal firmware reservation.
        const std::uint64_t budget = kvpool::kv_budget_from_plan(
            runtime::MemoryPlanner::plan_kv260(cfg, scheme));
        pages = kvpool::pages_for_budget(cfg, scheme, budget, opts_.kv_page_tokens);
    }
    check(pages > 0,
          "ServeEngine: KV pool budget affords zero pages (weights already "
          "overflow the device?)");
    governor_ =
        std::make_unique<kvpool::CapacityGovernor>(pages, opts_.kv_page_tokens);
}

ServeEngine::ServeEngine(const model::QuantizedModelWeights& weights, ServeOptions opts)
    : opts_(opts), queue_(opts.max_queue) {
    validate(opts_);
    if (opts_.paging) init_governor(weights.config);
    model::EngineOptions eo = engine_options(opts_);
    if (governor_ != nullptr) {
        // Either backend's paged arena and the governor's ledger budget the
        // same pool.
        eo.kv_page_tokens = opts_.kv_page_tokens;
        eo.kv_pool_pages = governor_->total_pages();
    }
    bundle_ = engine::make_backend(opts_.backend, weights, eo, opts_.fault_spec);
    backend_ = bundle_.backend.get();
    init();
}

ServeEngine::ServeEngine(std::unique_ptr<engine::DecodeBackend> backend,
                         ServeOptions opts)
    : opts_(opts), queue_(opts.max_queue) {
    validate(opts_);
    if (backend == nullptr) {
        throw std::invalid_argument("ServeEngine: null backend");
    }
    // The engine assumes every backend slot is its to hand out; a backend
    // with slots already reserved elsewhere would fail mid-serve instead of
    // here. Probe the full capacity up front (reserve-all / release-all is a
    // no-op on fresh slots).
    std::vector<std::size_t> probe;
    probe.reserve(backend->max_batch());
    while (probe.size() < backend->max_batch()) {
        const std::size_t slot = backend->reserve_slot();
        if (slot == engine::DecodeBackend::kNoSlot) break;
        probe.push_back(slot);
    }
    const bool all_free = probe.size() == backend->max_batch();
    for (const std::size_t slot : probe) backend->release_slot(slot);
    if (!all_free) {
        throw std::invalid_argument(
            "ServeEngine: backend already has reserved slots; hand the serve "
            "engine a backend it can own outright");
    }
    // Wrap AFTER the probe so the probe's reserve/release churn does not
    // consume the fault plan's reservation schedule (and an alloc:1 plan
    // faults on the first real admission, not inside this constructor).
    if (!opts_.fault_spec.empty()) {
        backend = std::make_unique<engine::FaultInjectingBackend>(
            std::move(backend), engine::parse_fault_plan(opts_.fault_spec));
    }
    bundle_.backend = std::move(backend);
    backend_ = bundle_.backend.get();
    if (opts_.paging) init_governor(backend_->config());
    init();
}

ServeEngine::~ServeEngine() {
    try {
        stop();
    } catch (...) {
        // A parked driver error has nowhere to go from a destructor.
    }
    // Inert-handle guarantee: a request still outstanding at teardown
    // resolves with kShardFailure (partial tokens preserved) instead of
    // leaving its future to break — handles held elsewhere return from
    // get() with a reason, never a std::future_error surprise. Marking the
    // engine failed first lets take_unfinished() do the harvest; on a clean
    // teardown (everything already resolved) the harvest is empty.
    failed_.store(true, std::memory_order_release);
    for (PendingRequest& req : take_unfinished()) {
        resolve_lost(std::move(req));
    }
}

void ServeEngine::init() {
    check(static_cast<std::uint64_t>(tokenizer_.vocab_size()) <=
              backend_->config().vocab_size,
          "ServeEngine: model vocab too small for the byte tokenizer");
    clock_ = opts_.clock ? opts_.clock.get() : &obs::steady_clock();
    next_id_.store(opts_.id_base + 1, std::memory_order_relaxed);
    hist_queue_wait_ = &metrics_.histogram("serve_queue_wait_ns");
    hist_ttft_ = &metrics_.histogram("serve_ttft_ns");
    hist_intertoken_ = &metrics_.histogram("serve_intertoken_gap_ns");
    hist_e2e_ = &metrics_.histogram("serve_e2e_ns");
    if (opts_.profile) {
        prof_.enable(clock_, opts_.shard_id, opts_.profiler_spans);
        prof_.bind_registry(metrics_);
        backend_->set_profiler(&prof_);
    }
    scheduler_ = make_scheduler(opts_.scheduler);
    slots_.resize(backend_->max_batch());
    feed_tokens_.reserve(std::max(slots_.size(), backend_->max_feed_tokens()));
    feed_slots_.reserve(slots_.size());
    feed_rows_.reserve(slots_.size());
    feed_extra_.reserve(slots_.size());
    prefill_order_.reserve(slots_.size());
    logits_.resize(slots_.size() * backend_->config().vocab_size);
}

void ServeEngine::trace(std::uint64_t request_id, obs::TraceEvent event,
                        std::uint64_t arg) const {
    if (opts_.trace) opts_.trace->record(request_id, opts_.shard_id, event, arg);
}

void ServeEngine::resolve_unstarted(PendingRequest&& req, FinishReason why) {
    ServeResult r;
    r.id = req.id;
    r.prompt_tokens = req.prompt.size();
    r.finish_reason = why;
    r.times_deferred = req.times_deferred;
    r.failovers = req.failovers;
    r.tokens = std::move(req.resumed);  // a resumed request keeps its progress
    r.text = tokenizer_.decode(r.tokens);
    trace(req.id, obs::TraceEvent::kRetired,
          static_cast<std::uint64_t>(r.finish_reason));
    req.promise.set_value(std::move(r));
}

RequestHandle ServeEngine::submit(Request req) {
    PendingRequest p;
    p.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    p.prompt = tokenizer_.encode(req.prompt);
    check(!p.prompt.empty(), "ServeEngine: empty prompt after tokenization");
    check(p.prompt.size() <= backend_->config().max_seq_len,
          "ServeEngine: prompt exceeds the context window");
    p.max_new_tokens = req.max_new_tokens;
    p.deadline = req.deadline;
    p.on_token = std::move(req.on_token);
    p.control = std::make_shared<RequestControl>();
    if (governor_ != nullptr) {
        // A demand that exceeds the WHOLE pool can never be admitted; reject
        // now instead of deferring it forever at the head of the queue.
        check(governor_->ever_admissible(
                  governor_->predict_pages(p.prompt.size(), p.max_new_tokens)),
              "ServeEngine: prompt + max_new demand exceeds the whole KV pool");
    }
    p.submitted_ns = clock_->now_ns();
    trace(p.id, obs::TraceEvent::kSubmitted, p.prompt.size());

    const std::uint64_t id = p.id;
    std::shared_ptr<RequestControl> control = p.control;
    std::shared_future<ServeResult> fut = p.promise.get_future().share();
    if (p.max_new_tokens == 0) {
        // Nothing to decode: resolve immediately without occupying a slot.
        resolve_unstarted(std::move(p), FinishReason::kBudget);
    } else {
        check(queue_.push(std::move(p)), "ServeEngine: request queue full");
        // A failure landing between the failed() check inside step and this
        // push would strand the request in a dead queue (the failure sweep
        // already ran). Re-check and pull our own request back out so the
        // handle still resolves.
        if (failed()) {
            for (PendingRequest& mine : queue_.remove_if(
                     [id](const PendingRequest& r) { return r.id == id; })) {
                resolve_lost(std::move(mine));
            }
        }
    }
    return RequestHandle(id, std::move(control), std::move(fut));
}

void ServeEngine::admit() {
    // Dead (cancelled/expired) requests were already swept from the queue by
    // step() this boundary; one landing in the microseconds since is admitted
    // normally and retired at the next boundary's control-plane pass.
    while (n_active_.load(std::memory_order_relaxed) < slots_.size()) {
        std::size_t committed = 0;
        const std::uint64_t pick_begin = prof_.enabled() ? prof_.now_ns() : 0;
        RequestQueue::PopOutcome out = queue_.pop_if(
            *scheduler_,
            [&](PendingRequest& r) {
                if (governor_ == nullptr) return true;
                std::size_t need = governor_->predict_pages(
                    r.prompt.size(), r.max_new_tokens);
                if (opts_.prefix_sharing) {
                    // Covered FULL pages are already charged once on the
                    // shared ledger, so this session pays only for its unique
                    // pages. A partially covered page is never discounted —
                    // keeping it committed is what funds the copy-on-write
                    // divergence copy.
                    const obs::ScopedPhase probe_span(&prof_,
                                                      obs::Phase::kPrefixProbe);
                    const std::size_t covered =
                        backend_->probe_prefix(r.prompt, r.prompt.size() - 1);
                    const std::size_t full = covered / opts_.kv_page_tokens;
                    need = need > full ? need - full : 1;
                }
                if (!governor_->try_admit(need)) {
                    ++r.times_deferred;
                    trace(r.id, obs::TraceEvent::kDeferred, r.times_deferred);
                    return false;
                }
                committed = need;
                return true;
            },
            opts_.max_deferrals);
        if (prof_.enabled()) {
            prof_.record_span(obs::Phase::kQueuePick, pick_begin,
                              prof_.now_ns());
        }
        if (governor_ != nullptr) {
            committed_pages_cache_.store(governor_->committed_pages(),
                                         std::memory_order_release);
        }
        if (out.deferred) {
            // Deferred with ZERO active sessions: nothing will ever free, so
            // only pinned prefixes can be in the way. Dump the index (the
            // pins are the only holders when no session runs, so every page
            // actually frees) and retry rather than starve admissible work.
            if (opts_.prefix_sharing &&
                n_active_.load(std::memory_order_relaxed) == 0) {
                const std::size_t released = backend_->drop_prefix_cache();
                if (released > 0) {
                    governor_->release_shared(released);
                    shared_pages_cache_.store(governor_->shared_pages(),
                                              std::memory_order_release);
                    const std::lock_guard<std::mutex> g(stats_mu_);
                    ++stats_.prefix_cache_drops;
                    continue;
                }
            }
            // The pick (scheduler's or promoted) does not fit the pool yet.
            // It stays queued in place and admission stops for this boundary —
            // strict policy order, so a big request is delayed, never starved.
            const std::lock_guard<std::mutex> g(stats_mu_);
            ++stats_.capacity_deferrals;
            return;
        }
        if (!out.req.has_value()) return;
        if (out.promoted) {
            const std::lock_guard<std::mutex> g(stats_mu_);
            ++stats_.queue_promotions;
        }
        // Admission proper: slot binding + session construction (+ adoption).
        const obs::ScopedPhase admission_span(&prof_, obs::Phase::kAdmission);

        std::size_t slot = engine::DecodeBackend::kNoSlot;
        try {
            slot = backend_->reserve_slot();
        } catch (...) {
            // Device fault mid-admission: the popped request is in neither
            // the queue nor a slot. Roll back its commitment, park it where
            // take_unfinished() will find it, and stage the fault for
            // step_locked() to consume at the next safe point.
            if (!backend_error_) backend_error_ = std::current_exception();
            if (governor_ != nullptr && committed != 0) {
                governor_->release(committed);
                committed_pages_cache_.store(governor_->committed_pages(),
                                             std::memory_order_release);
            }
            orphans_.push_back(std::move(*out.req));
            return;
        }
        check(slot != engine::DecodeBackend::kNoSlot && slot < slots_.size() &&
                  !slots_[slot].has_value(),
              "ServeEngine: backend slot bookkeeping diverged");
        slots_[slot].emplace(std::move(*out.req), opts_.sampler, slot);
        SessionState& s = *slots_[slot];
        s.committed_pages = committed;
        s.admit_seq = admissions_++;
        s.admitted_ns = clock_->now_ns();
        if (s.admitted_ns > s.submitted_ns) {
            hist_queue_wait_->record(s.admitted_ns - s.submitted_ns);
        } else {
            hist_queue_wait_->record(0);
        }
        trace(s.id, obs::TraceEvent::kAdmitted, slot);
        if (opts_.prefix_sharing) {
            // Adopt the longest indexed prefix, capped at prompt-1: the last
            // prompt token is always re-fed so the session has logits to
            // sample from — and when a page-aligned prompt matched fully,
            // that re-feed is what diverges into the shared tail page and
            // triggers the copy-on-write. A resumed (failed-over) session
            // adopts the same cap, so its resumed tokens all replay and the
            // sampler's draw-and-discard stream stays aligned with the
            // fault-free run.
            std::size_t covered = 0;
            {
                const obs::ScopedPhase adopt_span(&prof_,
                                                  obs::Phase::kPrefixAdopt);
                covered =
                    backend_->adopt_prefix(slot, s.prompt, s.prompt.size() - 1);
            }
            if (covered > 0) {
                s.prefix_fed = covered;
                s.adopted_tokens = covered;
                s.cow_pending = covered % opts_.kv_page_tokens != 0;
                trace(s.id, obs::TraceEvent::kPrefixHit, covered);
                const std::lock_guard<std::mutex> g(stats_mu_);
                ++stats_.prefix_hits;
                stats_.prefix_hit_tokens += covered;
            }
        }
        n_active_.fetch_add(1, std::memory_order_release);
    }
}

void ServeEngine::retire(SessionState& s, FinishReason why) {
    const obs::ScopedPhase retire_span(&prof_, obs::Phase::kRetire);
    ServeResult r;
    r.id = s.id;
    r.tokens = std::move(s.generated);
    r.text = tokenizer_.decode(r.tokens);
    r.prompt_tokens = s.prompt.size();
    r.finish_reason = why;
    r.times_deferred = s.times_deferred;
    r.failovers = s.failovers;
    const std::size_t committed = s.committed_pages;
    const std::uint64_t now_ns = clock_->now_ns();
    if (s.submitted_ns != 0) {
        hist_e2e_->record(now_ns > s.submitted_ns ? now_ns - s.submitted_ns : 0);
    }
    trace(s.id, obs::TraceEvent::kRetired, static_cast<std::uint64_t>(why));
    const std::size_t slot = s.slot;
    try {
        backend_->release_slot(slot);  // clears the slot's KV for the next tenant
    } catch (...) {
        // Device fault on teardown of a FINISHED request: its result still
        // resolves below, so finish this retirement's bookkeeping and stage
        // the fault for step_locked() to consume between phases.
        if (!backend_error_) backend_error_ = std::current_exception();
    }
    if (governor_ != nullptr) {
        // Whole worst-case commitment back to the budget — an early
        // retirement (EOS, cancel, deadline) frees pages it never touched,
        // which is exactly what lets a deferred request in.
        governor_->release(committed);
        committed_pages_cache_.store(governor_->committed_pages(),
                                     std::memory_order_release);
    }
    n_active_.fetch_sub(1, std::memory_order_release);
    {
        // Count the completion BEFORE resolving the promise: a waiter
        // unblocked by get() must see its request in stats_snapshot().
        const std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.requests_completed;
        if (why == FinishReason::kCancelled) ++stats_.requests_cancelled;
        if (why == FinishReason::kDeadline) ++stats_.requests_expired;
    }
    std::promise<ServeResult> promise = std::move(s.promise);
    slots_[slot].reset();
    promise.set_value(std::move(r));
}

bool ServeEngine::step() {
    check(!running(),
          "ServeEngine: step() while the background driver owns the loop");
    return step_locked();
}

void ServeEngine::set_on_failure(FailureCallback cb) {
    const std::lock_guard<std::mutex> g(failure_mu_);
    on_failure_ = std::move(cb);
}

std::exception_ptr ServeEngine::failure() const {
    const std::lock_guard<std::mutex> g(failure_mu_);
    return failure_;
}

void ServeEngine::resolve_lost(PendingRequest&& req) {
    ServeResult r;
    r.id = req.id;
    r.tokens = std::move(req.resumed);  // whatever was streamed pre-failure
    r.text = tokenizer_.decode(r.tokens);
    r.prompt_tokens = req.prompt.size();
    r.finish_reason = FinishReason::kShardFailure;
    r.times_deferred = req.times_deferred;
    r.failovers = req.failovers;
    // Count the loss BEFORE resolving the promise: a waiter unblocked by
    // get() must see this request already reflected in stats_snapshot(),
    // not catch the sweep mid-bookkeeping.
    {
        const std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.requests_completed;
        ++stats_.requests_lost;
    }
    trace(r.id, obs::TraceEvent::kRetired,
          static_cast<std::uint64_t>(FinishReason::kShardFailure));
    try {
        req.promise.set_value(std::move(r));
    } catch (const std::future_error&) {
        // Already resolved on another path; nothing to deliver.
    }
}

void ServeEngine::fail_backend() {
    std::exception_ptr e = backend_error_;
    backend_error_ = nullptr;
    {
        const std::lock_guard<std::mutex> g(failure_mu_);
        failure_ = e;
    }
    failed_.store(true, std::memory_order_release);
    {
        const std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.backend_failures;
    }
    if (governor_ != nullptr) {
        // Every session commitment back to the pool at once — the sessions
        // are about to be harvested, and the replacement engine starts from
        // a clean ledger either way. The prefix pins die with the backend.
        governor_->release(governor_->committed_pages());
        governor_->release_shared(governor_->shared_pages());
        committed_pages_cache_.store(0, std::memory_order_release);
        shared_pages_cache_.store(0, std::memory_order_release);
    }
    FailureCallback cb;
    {
        const std::lock_guard<std::mutex> g(failure_mu_);
        cb = on_failure_;
    }
    if (cb) {
        try {
            cb(e);
        } catch (...) {
            // Failure reporting must not take the reporting thread down too.
        }
    }
    // Whatever the callback's failover did not rescue resolves now, so no
    // handle is left waiting on a dead engine. With no callback this is the
    // whole backlog.
    for (PendingRequest& req : take_unfinished()) {
        resolve_lost(std::move(req));
    }
}

std::vector<PendingRequest> ServeEngine::take_unfinished() {
    check(failed(),
          "ServeEngine: take_unfinished() is only for a failed engine");
    std::vector<PendingRequest> out;
    // In-flight sessions first — they carry progress worth preserving. Their
    // generated-so-far tokens (all already streamed to on_token at sampling
    // time) become the resume record; the displacement bumps the failover
    // count. Slots are cleared WITHOUT release_slot: the device is dead, and
    // teardown must not trip over the corpse.
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!slots_[slot].has_value()) continue;
        SessionState& s = *slots_[slot];
        PendingRequest req;
        req.id = s.id;
        req.prompt = std::move(s.prompt);
        req.resumed = std::move(s.generated);
        req.max_new_tokens = s.max_new_tokens;
        req.deadline = s.deadline;
        req.on_token = std::move(s.on_token);
        req.control = std::move(s.control);
        req.times_deferred = s.times_deferred;
        req.failovers = s.failovers + 1;
        req.submitted_ns = s.submitted_ns;
        req.promise = std::move(s.promise);
        trace(req.id, obs::TraceEvent::kFailoverHarvest, req.resumed.size());
        out.push_back(std::move(req));
        slots_[slot].reset();
    }
    n_active_.store(0, std::memory_order_release);
    // Then requests that fell between queue and slot (reserve_slot faulted),
    // then the still-queued backlog, all displaced once by this failure.
    for (PendingRequest& req : orphans_) {
        ++req.failovers;
        trace(req.id, obs::TraceEvent::kFailoverHarvest, req.resumed.size());
        out.push_back(std::move(req));
    }
    orphans_.clear();
    for (PendingRequest& req :
         queue_.remove_if([](const PendingRequest&) { return true; })) {
        ++req.failovers;
        trace(req.id, obs::TraceEvent::kFailoverHarvest, req.resumed.size());
        out.push_back(std::move(req));
    }
    return out;
}

bool ServeEngine::resubmit(PendingRequest& req) {
    if (failed()) return false;
    if (governor_ != nullptr &&
        !governor_->ever_admissible(
            governor_->predict_pages(req.prompt.size(), req.max_new_tokens))) {
        // predict_pages(prompt, max_new) is the resumed request's demand too:
        // budget accounting counts the resume record against max_new, so the
        // session tops out at prompt + max_new tokens total either way.
        return false;
    }
    const std::uint64_t id = req.id;
    const std::size_t failover_count = req.failovers;
    if (!queue_.push(std::move(req))) return false;  // full: req left intact
    {
        const std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.requests_resumed;
    }
    trace(id, obs::TraceEvent::kResubmitted, failover_count);
    // Same failure race as submit(): once pushed, the request WILL resolve
    // here — pull it back ourselves if this engine just died, because the
    // failure sweep may already have run.
    if (failed()) {
        for (PendingRequest& mine : queue_.remove_if(
                 [id](const PendingRequest& r) { return r.id == id; })) {
            resolve_lost(std::move(mine));
        }
    }
    return true;
}

bool ServeEngine::step_locked() {
    if (failed()) return false;  // a dead engine steps no more
    control_plane();
    // Fault checkpoints: a backend exception staged by retire()/admit() is
    // consumed here, between phases, so no retirement or admission is ever
    // torn mid-flight by failure handling.
    if (backend_error_) {
        fail_backend();
        return false;
    }
    admit();
    if (backend_error_) {
        fail_backend();
        return false;
    }
    if (n_active_.load(std::memory_order_relaxed) == 0) {
        // Nothing admitted: the queue is empty — or its head is a deferred
        // request, which with zero active sessions cannot happen (an empty
        // pool admits anything submit accepted).
        return false;
    }
    build_feed();
    if (!run_feed()) return false;
    sample_and_book();
    return !failed() &&
           (n_active_.load(std::memory_order_relaxed) > 0 || !queue_.empty());
}

void ServeEngine::control_plane() {
    const auto now = std::chrono::steady_clock::now();

    // Token boundary, part 1: control-plane retirements (cancel, deadline)
    // free their slots before admission looks at the queue. Partial output is
    // delivered; the batch never stalls on a control operation.
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!slots_[slot].has_value()) continue;
        SessionState& s = *slots_[slot];
        if (s.cancel_requested()) {
            retire(s, FinishReason::kCancelled);
        } else if (s.deadline_passed(now)) {
            retire(s, FinishReason::kDeadline);
        }
    }

    // Sweep the whole queue for dead requests, not just the scheduler's next
    // pick — SJF could pass over a cancelled/expired request forever, leaving
    // its future unresolved. Each is counted before its future resolves.
    for (PendingRequest& dead : queue_.remove_if([now](const PendingRequest& r) {
             return (r.control != nullptr &&
                     r.control->cancel.load(std::memory_order_relaxed)) ||
                    (r.deadline.has_value() && now >= *r.deadline);
         })) {
        const bool was_cancelled =
            dead.control != nullptr &&
            dead.control->cancel.load(std::memory_order_relaxed);
        {
            const std::lock_guard<std::mutex> g(stats_mu_);
            ++stats_.requests_completed;
            if (was_cancelled) {
                ++stats_.requests_cancelled;
            } else {
                ++stats_.requests_expired;
            }
        }
        resolve_unstarted(std::move(dead), was_cancelled ? FinishReason::kCancelled
                                                         : FinishReason::kDeadline);
    }

    // Overload shedding: while an SLO alert has the governor engaged, shed
    // queued requests whose deadline the engine can no longer plausibly meet
    // — remaining budget below the governor's TTFT estimate (the cluster's
    // trailing-10s mean, published by the SLO controller) — so free slots go
    // to requests that can still land inside their SLO. Resolved with
    // kShedOverload (not kDeadline: the deadline has NOT passed yet; the
    // caller learns it was load-shed, the HTTP-503 of admission).
    if (opts_.overload == nullptr || !opts_.overload->shed_hopeless()) return;
    const std::uint64_t ttft_ns = opts_.overload->ttft_estimate_ns();
    if (ttft_ns == 0) return;
    const double est_ns =
        static_cast<double>(ttft_ns) * opts_.overload->options().hopeless_margin;
    const auto est = std::chrono::nanoseconds(static_cast<std::int64_t>(est_ns));
    for (PendingRequest& doomed :
         queue_.remove_if([now, est](const PendingRequest& r) {
             return r.deadline.has_value() && now + est >= *r.deadline;
         })) {
        const auto left =
            std::chrono::duration_cast<std::chrono::nanoseconds>(*doomed.deadline - now);
        trace(doomed.id, obs::TraceEvent::kShed,
              left.count() > 0 ? static_cast<std::uint64_t>(left.count()) : 0);
        opts_.overload->count_shed();
        {
            const std::lock_guard<std::mutex> g(stats_mu_);
            ++stats_.requests_completed;
            ++stats_.requests_shed;
        }
        resolve_unstarted(std::move(doomed), FinishReason::kShedOverload);
    }
}

void ServeEngine::build_feed() {
    // The step's row budget (Sarathi-style chunked prefill): every active
    // lane gets one row, and the rows left up to max_feed_tokens() go to
    // lanes still in prefill, oldest admission first, as a span of their
    // remaining prefix. Tied to the backend's tile, not a tunable: a step
    // walks the weights at most twice, so decoding lanes' inter-token gap
    // stays bounded while prompts advance a tile at a time.
    const std::size_t active = n_active_.load(std::memory_order_relaxed);
    std::size_t spare = std::max(active, backend_->max_feed_tokens()) - active;
    feed_extra_.assign(slots_.size(), 0);
    if (spare > 0) {
        prefill_order_.clear();
        for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
            if (slots_[slot].has_value() && slots_[slot]->prefill_left() > 1) {
                prefill_order_.push_back(slot);
            }
        }
        std::sort(prefill_order_.begin(), prefill_order_.end(),
                  [this](std::size_t a, std::size_t b) {
                      return slots_[a]->admit_seq < slots_[b]->admit_seq;
                  });
        for (const std::size_t slot : prefill_order_) {
            if (spare == 0) break;
            const std::size_t extra = std::min(spare, slots_[slot]->prefill_left() - 1);
            feed_extra_[slot] = extra;
            spare -= extra;
        }
    }

    feed_tokens_.clear();
    feed_slots_.clear();
    feed_rows_.clear();
    feed_prefill_rows_ = 0;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!slots_[slot].has_value()) continue;
        const SessionState& s = *slots_[slot];
        const std::size_t n = 1 + feed_extra_[slot];
        for (std::size_t j = 0; j < n; ++j) feed_tokens_.push_back(s.feed_at(j));
        feed_slots_.push_back(slot);
        feed_rows_.push_back(n);
        // Rows whose logits do NOT lead to sampling are prefill; the
        // profiler attributes their share of the step to the prefill phase.
        feed_prefill_rows_ += s.sampling_after_feed(n) ? n - 1 : n;
    }
}

bool ServeEngine::run_feed() {
    const std::size_t vocab = backend_->config().vocab_size;
    try {
        backend_->decode_batch(feed_tokens_, feed_slots_, feed_rows_,
                               std::span<float>(logits_.data(),
                                                feed_slots_.size() * vocab));
    } catch (...) {
        // The step produced nothing: no token was sampled, no on_token fired,
        // so every session's delivered-token state is exactly as it was. That
        // is what makes harvest + replay exactly-once.
        backend_error_ = std::current_exception();
        fail_backend();
        return false;
    }
    const engine::StepCost cost = backend_->last_step_cost();
    if (prof_.enabled()) {
        prof_.attribute_step(static_cast<std::uint64_t>(cost.wall_ns),
                             cost.simulated_ns, cost.weight_walks,
                             feed_prefill_rows_, feed_tokens_.size());
    }
    const std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.steps;
    stats_.weight_walks += cost.weight_walks;
    stats_.lane_steps += feed_tokens_.size();
    stats_.peak_batch = std::max(stats_.peak_batch, feed_slots_.size());
    stats_.wall_ns += cost.wall_ns;
    stats_.simulated_ns += cost.simulated_ns;
    stats_.sim_mem_bound_ns += cost.sim_mem_bound_ns;
    stats_.sim_compute_ns += cost.sim_compute_ns;
    stats_.sim_overhead_ns += cost.sim_overhead_ns;
    return true;
}

void ServeEngine::sample_and_book() {
    // One timestamp per step boundary: every latency observed this step
    // (TTFT, inter-token gap) shares it, so gaps measure the step cadence
    // without a clock call per lane.
    const std::uint64_t step_ns = clock_->now_ns();
    const std::size_t vocab = backend_->config().vocab_size;

    // A throwing on_token callback must not corrupt the batch: every lane's
    // bookkeeping still completes, and the first exception is rethrown only
    // after the token boundary is consistent. Token counters accumulate in
    // locals and are booked under one stats lock — at the end of the step,
    // and before any retirement resolves a future, so a caller returning
    // from get() always sees its own request's tokens counted.
    std::exception_ptr callback_error;
    std::size_t step_prompt_tokens = 0;
    std::size_t step_replayed_tokens = 0;
    std::size_t step_generated_tokens = 0;
    auto book = [&] {
        const std::lock_guard<std::mutex> g(stats_mu_);
        stats_.prompt_tokens += std::exchange(step_prompt_tokens, 0);
        stats_.replayed_tokens += std::exchange(step_replayed_tokens, 0);
        stats_.generated_tokens += std::exchange(step_generated_tokens, 0);
    };
    auto book_and_retire = [&](SessionState& s, FinishReason why) {
        book();
        retire(s, why);
    };
    for (std::size_t b = 0; b < feed_slots_.size(); ++b) {
        SessionState& s = *slots_[feed_slots_[b]];
        const std::span<const float> row(logits_.data() + b * vocab, vocab);
        const std::size_t n = feed_rows_[b];
        const bool samplable = s.sampling_after_feed(n);
        if (s.cow_pending) {
            // The feed that just ran was this session's first append after a
            // mid-page adoption: the arena took its private copy of the
            // shared page inside decode_batch.
            s.cow_pending = false;
            trace(s.id, obs::TraceEvent::kCowCopy, 1);
        }
        if (s.prefill_left() > 0) {
            const std::size_t begin = s.prefix_fed;
            const std::size_t end = begin + n;
            const std::size_t prompt_rows =
                begin < s.prompt.size() ? std::min(end, s.prompt.size()) - begin : 0;
            step_prompt_tokens += prompt_rows;
            step_replayed_tokens += n - prompt_rows;
            // A prefix row predicting a RESUMED token consumed one sampler
            // draw on the dead shard; the row has no logits here (inside a
            // tile) or they are unused, so discard the draw to keep a
            // stochastic continuation on the fault-free run's RNG stream.
            // The replayed token itself comes from the resume record.
            for (std::size_t p = begin; p < end; ++p) {
                if (p + 1 >= s.prompt.size() && p + 1 < s.prefix_len()) {
                    s.sampler.discard();
                }
            }
            s.prefix_fed = end;
            if (s.prefill_left() == 0) {
                trace(s.id, obs::TraceEvent::kPrefillDone, s.prefix_len());
                if (opts_.prefix_sharing && governor_ != nullptr) {
                    // Its prompt pages are all resident now: index them under
                    // the shared budget (pins never exceed half the pool or
                    // eat committed headroom) and charge each pin ONCE —
                    // future sessions adopting them are discounted instead.
                    const std::size_t took = backend_->register_prefix(
                        s.slot, s.prompt, governor_->shared_budget());
                    if (took > 0) {
                        governor_->charge_shared(took);
                        shared_pages_cache_.store(governor_->shared_pages(),
                                                  std::memory_order_release);
                    }
                }
            }
        }
        if (!samplable) continue;  // mid-prefill: the span ends inside the prompt

        std::int32_t next;
        {
            const obs::ScopedPhase sampling_span(&prof_,
                                                 obs::Phase::kSampling);
            next = s.sampler.sample(row);
        }
        s.generated.push_back(next);
        ++step_generated_tokens;
        // size() == 1 is the request's genuinely-first token: a failed-over
        // session arrives with `generated` seeded by the resume record, so
        // the survivor can never fire this again — exactly-once TTFT.
        if (s.generated.size() == 1) {
            if (s.submitted_ns != 0) {
                const std::uint64_t ttft =
                    step_ns > s.submitted_ns ? step_ns - s.submitted_ns : 0;
                hist_ttft_->record(ttft);
            }
            trace(s.id, obs::TraceEvent::kFirstToken,
                  static_cast<std::uint64_t>(static_cast<std::uint32_t>(next)));
        } else if (s.last_token_ns != 0) {
            hist_intertoken_->record(
                step_ns > s.last_token_ns ? step_ns - s.last_token_ns : 0);
        }
        s.last_token_ns = step_ns;
        if (s.on_token) {
            try {
                s.on_token(next, tokenizer_.decode_token(next));
            } catch (...) {
                if (!callback_error) callback_error = std::current_exception();
            }
        }

        if (next == model::ByteTokenizer::kEos) {
            book_and_retire(s, FinishReason::kEos);
        } else if (s.generated.size() >= s.max_new_tokens) {
            book_and_retire(s, FinishReason::kBudget);
        } else if (backend_->position(s.slot) >= backend_->config().max_seq_len) {
            book_and_retire(s, FinishReason::kContextOverflow);
        } else {
            s.pending_token = next;
        }
    }
    book();
    if (backend_error_) {
        // A release_slot fault during an in-loop retirement: every lane's
        // token boundary completed first, now the engine fails.
        fail_backend();
    }
    if (callback_error) std::rethrow_exception(callback_error);
}

void ServeEngine::run_until_idle() {
    check(!running(),
          "ServeEngine: run_until_idle() while the background driver owns the loop");
    while (step_locked()) {}
}

void ServeEngine::driver_loop() {
    try {
        while (!stop_requested_.load(std::memory_order_acquire)) {
            // driver_busy_ brackets every step under idle_mu_ so
            // wait_until_idle() never observes the window where a request
            // has been popped from the queue but not yet counted active.
            {
                const std::lock_guard<std::mutex> lock(idle_mu_);
                driver_busy_ = true;
            }
            const bool more = step_locked();
            {
                const std::lock_guard<std::mutex> lock(idle_mu_);
                driver_busy_ = false;
            }
            idle_cv_.notify_all();
            if (failed()) break;  // backend fault: the driver has no job left
            if (!more && !stop_requested_.load(std::memory_order_acquire)) {
                // Idle: sleep until a submit (queue condition variable) or a
                // stop request wakes the loop.
                queue_.wait_for_work([this] {
                    return stop_requested_.load(std::memory_order_acquire);
                });
            }
        }
    } catch (...) {
        // A throwing on_token callback (step rethrows it after the token
        // boundary completes) must not terminate the process from a detached
        // context: park the error for stop()/run() to rethrow.
        driver_error_ = std::current_exception();
    }
    {
        const std::lock_guard<std::mutex> lock(idle_mu_);
        driver_busy_ = false;
    }
    driver_running_.store(false, std::memory_order_release);
    idle_cv_.notify_all();  // waiters observe !running() and return
}

void ServeEngine::run() {
    check(!running(), "ServeEngine: background driver already running");
    check(!failed(),
          "ServeEngine: backend failed; build a replacement engine instead of "
          "restarting this one");
    if (driver_.joinable()) driver_.join();  // reap a previously stopped driver
    if (driver_error_ != nullptr) {
        // The previous driver died on a callback exception and the caller is
        // restarting without stop(): surface the error here, don't drop it.
        std::exception_ptr e = driver_error_;
        driver_error_ = nullptr;
        std::rethrow_exception(e);
    }
    stop_requested_.store(false, std::memory_order_release);
    driver_running_.store(true, std::memory_order_release);
    driver_ = std::thread([this] { driver_loop(); });
}

void ServeEngine::stop() {
    if (driver_.joinable()) {
        stop_requested_.store(true, std::memory_order_release);
        queue_.notify_all();
        driver_.join();
    }
    driver_running_.store(false, std::memory_order_release);
    if (driver_error_ != nullptr) {
        std::exception_ptr e = driver_error_;
        driver_error_ = nullptr;
        std::rethrow_exception(e);
    }
}

ServeStats ServeEngine::stats_snapshot() const {
    const std::lock_guard<std::mutex> g(stats_mu_);
    return stats_;
}

ServeLoad ServeEngine::load() const {
    ServeLoad l;
    {
        const std::lock_guard<std::mutex> g(stats_mu_);
        l.stats = stats_;
    }
    l.active = n_active_.load(std::memory_order_acquire);
    l.slots = slots_.size();
    l.queue_capacity = queue_.capacity();
    l.failed = failed();
    l.paging = governor_ != nullptr;
    if (governor_ != nullptr) {
        l.total_pages = governor_->total_pages();
        l.committed_pages = committed_pages_cache_.load(std::memory_order_acquire);
        l.shared_pages = shared_pages_cache_.load(std::memory_order_acquire);
    }
    if (opts_.prefix_sharing) l.prefix = backend_->prefix_stats();
    // One pass under the queue lock: depth and worst-case page demand of
    // everything still waiting (predict_pages is pure, safe off-thread).
    std::size_t queued = 0;
    std::size_t queued_pages = 0;
    queue_.for_each([&](const PendingRequest& r) {
        ++queued;
        if (governor_ != nullptr) {
            queued_pages +=
                governor_->predict_pages(r.prompt.size(), r.max_new_tokens);
        }
    });
    l.queued = queued;
    l.queued_pages = queued_pages;
    l.queue_wait = obs::LatencySummary::from(hist_queue_wait_->snapshot());
    l.ttft = obs::LatencySummary::from(hist_ttft_->snapshot());
    l.e2e = obs::LatencySummary::from(hist_e2e_->snapshot());
    return l;
}

obs::MetricsSnapshot ServeEngine::metrics_snapshot() const {
    // Histograms come straight from the registry; counters and gauges are
    // DERIVED from the load snapshot (whose counter block is the same
    // stats_ that stats_snapshot()/ClusterStats report), so the exposed
    // numbers can never drift from the engine's authoritative bookkeeping.
    obs::MetricsSnapshot s = metrics_.snapshot();
    const ServeLoad l = load();
    s.set_counter("serve_steps", l.stats.steps);
    s.set_counter("serve_prompt_tokens", l.stats.prompt_tokens);
    s.set_counter("serve_generated_tokens", l.stats.generated_tokens);
    s.set_counter("serve_replayed_tokens", l.stats.replayed_tokens);
    s.set_counter("serve_requests_completed", l.stats.requests_completed);
    s.set_counter("serve_requests_cancelled", l.stats.requests_cancelled);
    s.set_counter("serve_requests_expired", l.stats.requests_expired);
    s.set_counter("serve_requests_shed", l.stats.requests_shed);
    s.set_counter("serve_requests_resumed", l.stats.requests_resumed);
    s.set_counter("serve_requests_lost", l.stats.requests_lost);
    s.set_counter("serve_capacity_deferrals", l.stats.capacity_deferrals);
    s.set_counter("serve_queue_promotions", l.stats.queue_promotions);
    s.set_counter("serve_backend_failures", l.stats.backend_failures);
    s.set_counter("serve_wall_ns", static_cast<std::uint64_t>(l.stats.wall_ns));
    s.set_counter("serve_simulated_ns",
                  static_cast<std::uint64_t>(l.stats.simulated_ns));
    s.set_counter("serve_sim_mem_bound_ns",
                  static_cast<std::uint64_t>(l.stats.sim_mem_bound_ns));
    s.set_counter("serve_sim_compute_ns",
                  static_cast<std::uint64_t>(l.stats.sim_compute_ns));
    s.set_counter("serve_sim_overhead_ns",
                  static_cast<std::uint64_t>(l.stats.sim_overhead_ns));
    s.set_gauge("serve_queued", static_cast<double>(l.queued));
    s.set_gauge("serve_active_sessions", static_cast<double>(l.active));
    s.set_gauge("serve_slots", static_cast<double>(l.slots));
    s.set_gauge("serve_failed", l.failed ? 1.0 : 0.0);
    s.set_gauge("serve_weight_walks", l.stats.weight_walks);
    s.set_gauge("serve_peak_batch", static_cast<double>(l.stats.peak_batch));
    if (l.paging) {
        s.set_gauge("serve_committed_pages",
                    static_cast<double>(l.committed_pages));
        s.set_gauge("serve_queued_pages", static_cast<double>(l.queued_pages));
        s.set_gauge("serve_total_pages", static_cast<double>(l.total_pages));
    }
    if (opts_.prefix_sharing) {
        s.set_counter("serve_prefix_hits_total", l.stats.prefix_hits);
        s.set_counter("serve_prefix_covered_tokens_total",
                      l.stats.prefix_hit_tokens);
        s.set_counter("serve_prefix_cow_copies_total", l.prefix.cow_copies);
        s.set_counter("serve_prefix_cache_drops_total",
                      l.stats.prefix_cache_drops);
        s.set_gauge("serve_prefix_pages_shared",
                    static_cast<double>(l.prefix.pages_shared));
    }
    // The trace ring is shared cluster-wide, so per-shard snapshots would
    // multiply-count it on merge; ClusterRouter::metrics_snapshot overwrites
    // this entry with the same authoritative value after merging.
    if (opts_.trace) {
        s.set_counter("serve_trace_dropped_total", opts_.trace->dropped());
    }
    if (prof_.enabled()) prof_.export_into(s);
    return s;
}

void ServeEngine::wait_until_idle() {
    if (!running()) {
        run_until_idle();
        return;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
        // driver_busy_ (guarded by idle_mu_) rules out the mid-admission
        // window where a request is in neither the queue nor n_active_.
        return !running() ||
               (!driver_busy_ && queue_.empty() &&
                n_active_.load(std::memory_order_acquire) == 0);
    });
}

}  // namespace efld::serve
