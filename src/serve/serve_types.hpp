// Shared value types of the serve subsystem: what a caller submits
// (`Request`), the live handle they hold while it runs (`RequestHandle`),
// what the request resolves to (`ServeResult`), and the counters that expose
// the GEMV→GEMM amortization (decode is weight-bound, so weight walks per
// generated token is THE serving efficiency metric — 1.0 at batch 1,
// approaching 1/batch as sessions overlap).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/decode_backend.hpp"
#include "obs/latency_histogram.hpp"

namespace efld::serve {

// Per-token streaming callback: the sampled token id and its decoded text
// piece. Invoked from the thread driving ServeEngine::step(), once per
// sampled token (including a terminal EOS), before the request's future
// resolves. A throwing callback does not corrupt the batch: the token
// boundary completes for every session first, then step() rethrows the first
// exception.
using TokenCallback = std::function<void(std::int32_t token, std::string_view piece)>;

// What a caller submits. Everything beyond prompt/max_new_tokens is optional:
// `deadline` retires the request (possibly with partial output) at the first
// token boundary past the given instant — queued requests past their deadline
// are shed without ever taking a slot; `on_token` streams tokens as they are
// sampled. The deadline is an instant on the engine's clock
// (ServeOptions::clock, read through obs::time_point): steady_clock::now()
// plus a budget on the default clock, the injected clock's reading plus a
// budget under a test clock.
struct Request {
    std::string prompt;
    std::size_t max_new_tokens = 0;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    TokenCallback on_token;
};

// Why a request retired. Every retirement path names its reason — nothing
// resolves silently.
enum class FinishReason {
    kNone = 0,         // not yet retired (never seen in a resolved ServeResult)
    kBudget,           // ran its full max_new_tokens budget (normal completion)
    kEos,              // sampled the EOS token
    kContextOverflow,  // hit the per-session context window (max_seq_len)
    kCancelled,        // RequestHandle::cancel()
    kDeadline,         // Request::deadline passed
    kShardFailure,     // the serving engine died (backend fault / teardown)
                       // and the request could not be failed over; tokens
                       // holds whatever was streamed before the failure
    kShedOverload,     // the overload governor shed it from the queue: a
                       // firing SLO alert engaged shedding and the request's
                       // remaining deadline budget could not cover the
                       // observed TTFT — resolved early so its slot goes to
                       // a request that can still meet its deadline
};

[[nodiscard]] constexpr std::string_view to_string(FinishReason r) noexcept {
    switch (r) {
        case FinishReason::kNone: return "none";
        case FinishReason::kBudget: return "budget";
        case FinishReason::kEos: return "eos";
        case FinishReason::kContextOverflow: return "context_overflow";
        case FinishReason::kCancelled: return "cancelled";
        case FinishReason::kDeadline: return "deadline";
        case FinishReason::kShardFailure: return "shard_failure";
        case FinishReason::kShedOverload: return "shed_overload";
    }
    return "none";
}

// Resolution of one submitted request; `finish_reason` says why it retired.
struct ServeResult {
    std::uint64_t id = 0;
    std::string text;                     // decoded generated tokens
    std::vector<std::int32_t> tokens;     // generated ids (incl. EOS if hit)
    std::size_t prompt_tokens = 0;        // prompt length after tokenization
    FinishReason finish_reason = FinishReason::kNone;
    // Times this request was passed over at admission before it was served:
    // the capacity governor refused its page demand while it was the
    // scheduler's pick, or a later-submitted request was admitted ahead of it
    // (SJF picking a shorter job). Past ServeOptions::max_deferrals the queue
    // promotes it to the mandatory next pick — see RequestQueue::pop_if.
    std::size_t times_deferred = 0;
    // Times the request was displaced by a shard failure and replayed on a
    // surviving shard (0 on the fault-free path). A nonzero count with a
    // normal finish_reason (budget/eos) is a failover-replayed completion:
    // the head of `tokens` was generated on the dead shard, the tail on the
    // survivor, and each token was streamed to on_token exactly once.
    std::size_t failovers = 0;
};

// State shared between a RequestHandle and the engine's bookkeeping for one
// request. The cancel flag is the cooperative-cancellation channel: any
// thread sets it; the serve loop observes it at token boundaries.
struct RequestControl {
    std::atomic<bool> cancel{false};
};

// The caller's live handle to a submitted request: cancel it, poll for
// completion, or block on the result. Copyable (shared_future semantics); a
// default-constructed handle is inert.
//
// Handles stay safe across every engine lifecycle event — they never dangle
// and never hang:
//   - Shard failure with failover: the request's promise and cancel channel
//     move to the surviving shard with it; this same handle resolves (and
//     cancel() still works) wherever the request finishes.
//   - Shard failure without failover, or engine destruction with the request
//     still outstanding: the promise resolves with
//     FinishReason::kShardFailure and whatever tokens were streamed, so
//     wait()/get() return instead of blocking forever.
//   - cancel() after the engine is gone: writes a flag on shared state the
//     handle co-owns — safe, simply with nobody left to observe it.
class RequestHandle {
public:
    RequestHandle() = default;
    RequestHandle(std::uint64_t id, std::shared_ptr<RequestControl> control,
                  std::shared_future<ServeResult> fut)
        : id_(id), control_(std::move(control)), fut_(std::move(fut)) {}

    // Cooperative: the session retires (partial tokens, `cancelled` set) at
    // the next token boundary; a still-queued request is shed on its next
    // admission consideration. Safe from any thread, idempotent.
    void cancel() noexcept {
        if (control_) control_->cancel.store(true, std::memory_order_relaxed);
    }
    [[nodiscard]] bool done() const {
        return fut_.valid() &&
               fut_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    }
    // Blocks until the request retires. Throws std::future_error(no_state)
    // on an inert (default-constructed) handle.
    [[nodiscard]] const ServeResult& get() const {
        if (!fut_.valid()) {
            throw std::future_error(std::future_errc::no_state);
        }
        return fut_.get();
    }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] bool valid() const noexcept { return fut_.valid(); }
    [[nodiscard]] std::shared_future<ServeResult> future() const { return fut_; }

private:
    std::uint64_t id_ = 0;
    std::shared_ptr<RequestControl> control_;
    std::shared_future<ServeResult> fut_;
};

// A tokenized request waiting for a free session slot. Failover resubmission
// reuses this shape: a request harvested from a failed shard arrives at the
// surviving shard with `resumed` holding the tokens the dead shard already
// generated AND streamed. They replay as prefill (rebuilding the KV history
// deterministically) and are prepended to the result's tokens, but on_token
// never fires for them again — exactly-once delivery per (request, position).
struct PendingRequest {
    std::uint64_t id = 0;
    std::vector<std::int32_t> prompt;     // tokenized, BOS included
    std::vector<std::int32_t> resumed;    // failover replay: already streamed
    std::size_t max_new_tokens = 0;       // original budget (incl. resumed)
    std::optional<std::chrono::steady_clock::time_point> deadline;
    TokenCallback on_token;
    std::shared_ptr<RequestControl> control;
    std::size_t times_deferred = 0;       // capacity-governor deferrals so far
    std::size_t failovers = 0;            // shard failures that displaced it
    // Clock::now_ns() at original submission, preserved across failover
    // harvest/resubmit so queue-wait/TTFT/e2e latencies span the request's
    // whole life, not just its stay on the current shard.
    std::uint64_t submitted_ns = 0;
    std::promise<ServeResult> promise;
};

// Aggregate engine counters since construction. `steps` counts backend
// decode_batch calls; `lane_steps` counts the token rows they fed (a decoding
// lane's one row, or a prefill lane's whole prompt-tile span), so
// lane_steps == prompt_tokens + replayed_tokens + generated_tokens -
// requests_completed for sessions that ran to completion (every fed row is a
// prefix id or a sampled token fed back; a request's last sample is never
// fed, and adopted prefix tokens are never fed). `weight_walks` accumulates
// the backend's StepCost reports (1.0 per step for the accel twin, one per
// 8-row register tile on the host, fractional for a future partial-stream
// engine). The two time totals come from the
// backend's StepCost reports: wall_ns is host time inside decode, and
// simulated_ns is modeled device time (nonzero for the accel backend), so
// the same counters answer "how fast is this process" and "how fast would
// the KV260 serve this load".
struct ServeStats {
    std::size_t steps = 0;               // backend decode_batch calls
    double weight_walks = 0.0;           // backend-reported streaming passes
    std::size_t lane_steps = 0;          // token rows fed, summed over steps
    std::size_t prompt_tokens = 0;       // prefill tokens fed
    std::size_t generated_tokens = 0;    // sampled tokens
    std::size_t requests_completed = 0;  // every retirement, any reason
    std::size_t requests_cancelled = 0;
    std::size_t requests_expired = 0;    // deadline retirements
    std::size_t requests_shed = 0;       // overload-governor queue sheds
    std::size_t capacity_deferrals = 0;  // admissions refused by the governor
    std::size_t queue_promotions = 0;    // anti-starvation picks (max_deferrals)
    std::size_t peak_batch = 0;          // peak sessions (slots) fed in a step
    // Fault-tolerance counters. replayed_tokens is failover replay work: a
    // resumed request's already-delivered tokens re-fed as prefill to rebuild
    // its KV history (they ride weight walks but are never re-streamed).
    std::size_t backend_failures = 0;    // decode/reserve faults (0 or 1)
    std::size_t requests_resumed = 0;    // failover arrivals accepted here
    std::size_t requests_lost = 0;       // resolved kShardFailure (no failover)
    std::size_t replayed_tokens = 0;     // resumed tokens re-fed as prefill
    // Prefix-sharing counters (zero unless ServeOptions::prefix_sharing).
    // prefix_hits counts admissions that adopted a shared prefix;
    // prefix_hit_tokens is the prefill work those adoptions skipped (the one
    // source of serve_prefix_hits_total / serve_prefix_covered_tokens_total);
    // prefix_cache_drops counts capacity-pressure index flushes.
    std::size_t prefix_hits = 0;
    std::size_t prefix_hit_tokens = 0;
    std::size_t prefix_cache_drops = 0;
    double wall_ns = 0.0;                // host time inside backend steps
    double simulated_ns = 0.0;           // modeled device time (accel backend)
    // Simulated step-phase breakdown, accumulated from StepCost (accel
    // backend only; the host backend reports no phase model, so these stay
    // zero). mem_bound is DDR-stream time (the paper's roofline), compute is
    // exposed VPU time not hidden under it, overhead is per-step fixed cost.
    double sim_mem_bound_ns = 0.0;
    double sim_compute_ns = 0.0;
    double sim_overhead_ns = 0.0;

    [[nodiscard]] double weight_walks_per_token() const noexcept {
        return generated_tokens > 0
                   ? weight_walks / static_cast<double>(generated_tokens)
                   : 0.0;
    }
    [[nodiscard]] double mean_batch_occupancy() const noexcept {
        return steps > 0
                   ? static_cast<double>(lane_steps) / static_cast<double>(steps)
                   : 0.0;
    }
    [[nodiscard]] double simulated_tokens_per_s() const noexcept {
        return simulated_ns > 0.0
                   ? static_cast<double>(generated_tokens) * 1e9 / simulated_ns
                   : 0.0;
    }
};

// One consistent snapshot of an engine's load, safe to take from any thread
// while the background driver serves (ServeEngine::load()). This is what a
// cluster router's placement policy decides over: queue pressure, active
// sessions, and — with paging — how much of the KV page budget is spoken for
// by admitted sessions (committed) and by demand still waiting in the queue
// (queued worst-case pages).
struct ServeLoad {
    ServeStats stats;                 // counter snapshot (stats_snapshot())
    std::size_t queued = 0;           // requests waiting in the queue
    std::size_t queue_capacity = 0;   // queue bound (submit rejects past it)
    std::size_t active = 0;           // sessions currently holding a slot
    std::size_t slots = 0;            // max concurrent sessions (max_batch)
    bool failed = false;              // backend fault: engine serves no more
    bool paging = false;              // capacity governor present
    std::size_t committed_pages = 0;  // governor ledger (0 without paging)
    std::size_t queued_pages = 0;     // worst-case demand still in the queue
    std::size_t total_pages = 0;      // pool size (0 without paging)
    std::size_t shared_pages = 0;     // prefix-index pins charged to the pool
    // Backend prefix-sharing counters (all zero when sharing is off); the
    // router's prefix-affinity policy reads pages_shared/hits from here.
    engine::PrefixSharingStats prefix;
    // Latency digests from the engine's metrics histograms (queue admission
    // wait, time-to-first-token, end-to-end). Placement policies and the
    // cluster's ClusterStats aggregation read these without touching the
    // full bucket arrays.
    obs::LatencySummary queue_wait;
    obs::LatencySummary ttft;
    obs::LatencySummary e2e;
};

}  // namespace efld::serve
