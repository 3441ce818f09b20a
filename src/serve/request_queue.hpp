// Bounded thread-safe FIFO of pending requests.
//
// submit() may be called from any thread; the serve loop pops at token
// boundaries (the only points where a session can join the batch). The queue
// is deliberately bounded — a serving system must shed load explicitly, not
// grow an unbounded backlog.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/serve_types.hpp"

namespace efld::serve {

class Scheduler;

class RequestQueue {
public:
    explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

    RequestQueue(const RequestQueue&) = delete;
    RequestQueue& operator=(const RequestQueue&) = delete;

    // Enqueues `req`; returns false (leaving `req` untouched) when full.
    bool push(PendingRequest&& req);

    // Oldest pending request, or nullopt when empty.
    std::optional<PendingRequest> try_pop();

    // Removes and returns the scheduler's pick over the current backlog, or
    // nullopt when empty. try_pop() is pop_with(FcfsScheduler{}).
    std::optional<PendingRequest> pop_with(const Scheduler& scheduler);

    // pop_with gated by an admission predicate: the scheduler's pick is
    // removed and returned only when `admissible(pick)` holds. When it does
    // not, the pick stays queued IN PLACE (strict policy order — nothing
    // jumps a deferred request, which is what keeps big requests from
    // starving) and `deferred` is set. The predicate may mutate the request's
    // bookkeeping (deferral counters) and runs under the queue lock, so it
    // must not call back into the queue.
    //
    // Deferral accounting: a successful pop charges one deferral to every
    // still-queued request submitted EARLIER than the popped one (it was
    // passed over — SJF admitting a shorter, younger job), on top of the
    // deferrals the predicate itself records when it refuses the pick for
    // capacity. Under FCFS without capacity pressure nothing accrues.
    //
    // Anti-starvation: a request whose times_deferred has reached
    // `max_deferrals` overrides the scheduler — it becomes the mandatory next
    // pick (most-deferred first, FIFO on ties) until admitted, so a stream of
    // small requests cannot pass over a big one forever. A promoted pick the
    // predicate refuses still blocks admission (strict order), which bounds
    // its wait by the batch's drain time. kNoPromotion disables the guard.
    struct PopOutcome {
        std::optional<PendingRequest> req;
        bool deferred = false;  // pick existed but was refused admission
        bool promoted = false;  // pick was forced by the starvation guard
    };
    static constexpr std::size_t kNoPromotion = static_cast<std::size_t>(-1);
    PopOutcome pop_if(const Scheduler& scheduler,
                      const std::function<bool(PendingRequest&)>& admissible,
                      std::size_t max_deferrals = kNoPromotion);

    // Blocks until the queue is non-empty or `wake()` returns true. push()
    // notifies; an external waker (ServeEngine::stop) flips its flag and
    // calls notify_all(), which takes the queue mutex before notifying so
    // the wake-up cannot slip between a waiter's predicate check and its
    // sleep. The background serve driver idles here.
    void wait_for_work(const std::function<bool()>& wake);
    void notify_all();

    // Removes every request matching `pred` (kept in FIFO order) and returns
    // them. The serve loop uses this to shed cancelled/expired requests the
    // scheduler might otherwise pass over forever.
    std::vector<PendingRequest> remove_if(
        const std::function<bool(const PendingRequest&)>& pred);

    // Visits every queued request (FIFO order) under the queue lock — the
    // load-snapshot path (ServeEngine::load) sums queued page demand with
    // this. `fn` must not call back into the queue.
    void for_each(const std::function<void(const PendingRequest&)>& fn) const;

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    mutable std::mutex m_;
    std::condition_variable cv_;  // signaled on push and by notify_all()
    std::deque<PendingRequest> q_;
    std::size_t capacity_;
};

}  // namespace efld::serve
